//! The simulator core: node table, event loop, and failure injection.

use crate::context::{Action, Context, MsgToken};
use crate::event::{Event, EventHandle, EventKind, EventQueue, Transport};
use crate::id::{GroupId, NodeId};
use crate::latency::LatencyModel;
use crate::stats::Stats;
use crate::storage::{SimStore, StableStore, StoreFault};
use crate::time::{Duration, Time};
use crate::topology::Topology;
use crate::trace::{DropReason, Trace, TraceEvent};
use mykil_crypto::drbg::Drbg;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A simulated process. Implementors are area controllers, registration
/// servers, group members, or baseline-protocol nodes.
///
/// All callbacks receive a [`Context`] through which every effect (send,
/// multicast, timer, group membership) is expressed.
pub trait Node: Any {
    /// Called once when the node is added to the simulation.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called after the node recovers from a crash (see
    /// [`Simulator::restart`]). A crash cancels every timer the node had
    /// pending and wipes volatile state (see
    /// [`Node::on_crashed_volatile_reset`]), so implementors must re-arm
    /// their periodic timers here and reconstruct state from stable
    /// storage ([`Context::storage`]) and/or resynchronize with peers.
    fn on_restarted(&mut self, _ctx: &mut Context<'_>) {}

    /// Called by [`Simulator::crash`] at the moment of the crash: the
    /// node must discard every field that a real process would lose with
    /// its address space, keeping only what models durable local
    /// configuration (keypair, deployment config, device identity).
    /// No [`Context`] is provided — a crashing process performs no
    /// effects; reconstruction happens in [`Node::on_restarted`].
    fn on_crashed_volatile_reset(&mut self) {}

    /// Called when a message addressed to this node arrives.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}

    /// Called when a [`Context::send_reliable`] message is acknowledged
    /// by `peer`'s network layer (the peer received it; its `on_message`
    /// ran unless the frame was a duplicate).
    fn on_reliable_acked(&mut self, _ctx: &mut Context<'_>, _peer: NodeId, _msg: MsgToken) {}

    /// Called when a [`Context::send_reliable`] message exhausts its
    /// retry budget without an acknowledgement; the peer is presumed
    /// unreachable. `kind` is the accounting kind the send was tagged
    /// with.
    fn on_reliable_expired(
        &mut self,
        _ctx: &mut Context<'_>,
        _to: NodeId,
        _kind: &'static str,
        _msg: MsgToken,
    ) {
    }
}

/// Messages a receiver remembers per sender for duplicate suppression.
const DEDUP_WINDOW: usize = 128;

/// Default idle horizon after which a per-pair dedup window is evicted.
/// Far longer than any retransmission schedule (6 attempts of the
/// default policy span ~3.2 s), so eviction never unmasks a duplicate
/// that the reliable layer could still produce.
const DEDUP_IDLE_HORIZON_MICROS: u64 = 30_000_000;

/// Nominal wire size of a reliable-layer ack (tag byte + u64 id).
const ACK_WIRE_BYTES: usize = 9;

/// A reliable send awaiting acknowledgement.
#[derive(Debug)]
struct PendingReliable {
    src: NodeId,
    to: NodeId,
    kind: &'static str,
    bytes: Vec<u8>,
    /// Transmissions made so far (the initial send counts as 1).
    attempts: u32,
}

/// Recently seen reliable msg ids from one peer (insertion-ordered so
/// the oldest is evicted when the window is full). `last_seen` lets the
/// simulator evict whole windows for pairs that stopped talking —
/// without it the map grows one window per communicating pair forever,
/// which is unbounded memory at million-member scale.
#[derive(Debug, Default)]
struct DedupWindow {
    seen: BTreeSet<u64>,
    order: VecDeque<u64>,
    last_seen: Time,
}

impl DedupWindow {
    /// Records `msg_id` at `now`; returns `false` when it was already
    /// present.
    fn fresh(&mut self, msg_id: u64, now: Time) -> bool {
        self.last_seen = now;
        if !self.seen.insert(msg_id) {
            return false;
        }
        self.order.push_back(msg_id);
        if self.order.len() > DEDUP_WINDOW {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }
}

/// Builds a node's stable-storage backend (see
/// [`Simulator::set_storage_factory`]).
pub type StorageFactory = Box<dyn FnMut(NodeId) -> Box<dyn StableStore> + Send>;

/// Deterministic discrete-event simulator.
///
/// See the [crate docs](crate) for an overview and example.
pub struct Simulator {
    nodes: Vec<Option<Box<dyn Node>>>,
    /// Per-node stable storage, parallel to `nodes`. Survives crashes
    /// (modulo injected storage faults) while volatile state does not.
    storage: Vec<Box<dyn StableStore>>,
    /// Builds the storage backend for each node added from here on;
    /// `None` means the default in-memory [`SimStore`].
    storage_factory: Option<StorageFactory>,
    queue: EventQueue,
    topo: Topology,
    groups: Vec<BTreeSet<NodeId>>,
    stats: Stats,
    rng: Drbg,
    now: Time,
    latency: LatencyModel,
    next_token: u64,
    next_msg_id: u64,
    pending_reliable: BTreeMap<u64, PendingReliable>,
    dedup: BTreeMap<(NodeId, NodeId), DedupWindow>,
    /// Windows idle past this horizon are evicted by a periodic sweep.
    dedup_idle_horizon: Duration,
    /// When the last eviction sweep ran (sweeps are time-driven and
    /// deterministic: no RNG, ordered map iteration).
    last_dedup_sweep: Time,
    reliable_base: Duration,
    reliable_max_attempts: u32,
    events_processed: u64,
    trace: Option<Trace>,
    dup_per_mille: u32,
    reorder_per_mille: u32,
    reorder_window: Duration,
    /// Per-node timer scale in permille (1000 = nominal); nodes absent
    /// from the map run their timers at nominal speed.
    timer_skew: BTreeMap<NodeId, u32>,
    /// Pending timers per node, keyed by token and holding the wheel
    /// handle: cancellation (explicit or by crash) removes the event
    /// from the queue in O(1) — there is no tombstone set to leak.
    armed_timers: BTreeMap<NodeId, BTreeMap<u64, EventHandle>>,
    /// Completed crash/restart cycles per node. Recovery is allowed to
    /// roll volatile counters backwards (a corrupt checkpoint falls
    /// back to an older slot), so monotonicity checkers use this to
    /// scope their baselines to one process incarnation.
    restart_counts: BTreeMap<NodeId, u64>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Creates a simulator with LAN latency and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_latency(seed, LatencyModel::lan())
    }

    /// Creates a simulator with an explicit latency model.
    pub fn with_latency(seed: u64, latency: LatencyModel) -> Self {
        Simulator {
            nodes: Vec::new(),
            storage: Vec::new(),
            storage_factory: None,
            queue: EventQueue::new(),
            topo: Topology::new(),
            groups: Vec::new(),
            stats: Stats::new(),
            rng: Drbg::from_seed(seed),
            now: Time::ZERO,
            latency,
            next_token: 0,
            next_msg_id: 0,
            pending_reliable: BTreeMap::new(),
            dedup: BTreeMap::new(),
            dedup_idle_horizon: Duration::from_micros(DEDUP_IDLE_HORIZON_MICROS),
            last_dedup_sweep: Time::ZERO,
            reliable_base: Duration::from_millis(50),
            reliable_max_attempts: 6,
            events_processed: 0,
            trace: None,
            dup_per_mille: 0,
            reorder_per_mille: 0,
            reorder_window: Duration::ZERO,
            timer_skew: BTreeMap::new(),
            armed_timers: BTreeMap::new(),
            restart_counts: BTreeMap::new(),
        }
    }

    /// Configures the reliable-delivery layer: first retransmission
    /// after `base` (doubling each attempt), giving up after
    /// `max_attempts` total transmissions. Defaults: 50 ms, 6 attempts.
    /// Overrides the idle horizon after which per-pair dedup windows
    /// are evicted (zero disables eviction entirely).
    pub fn set_dedup_idle_horizon(&mut self, horizon: Duration) {
        self.dedup_idle_horizon = horizon;
    }

    /// Number of live per-pair dedup windows (also exported as the
    /// `dedup-windows` stat whenever an eviction sweep runs).
    pub fn dedup_windows(&self) -> usize {
        self.dedup.len()
    }

    /// Timer bookkeeping consistency: every armed `(node, token)` pair
    /// holds a handle to exactly one pending timer event in the wheel,
    /// and the wheel holds no timer event outside the armed map. The
    /// pre-wheel scheduler kept a `cancelled` tombstone set that leaked
    /// entries for timers dropped by a crash; chaos soaks assert this
    /// to pin the fix.
    pub fn timer_accounting_consistent(&self) -> bool {
        let armed: usize = self.armed_timers.values().map(|m| m.len()).sum();
        armed == self.queue.pending_timers()
    }

    pub fn set_reliable_policy(&mut self, base: Duration, max_attempts: u32) {
        self.reliable_base = base;
        self.reliable_max_attempts = max_attempts.max(1);
    }

    /// Adds a node; its [`Node::on_start`] runs at the current time.
    pub fn add_node<N: Node>(&mut self, node: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Box::new(node)));
        self.storage.push(match &mut self.storage_factory {
            Some(make) => make(id),
            None => Box::new(SimStore::new()),
        });
        self.queue.push(self.now, id, EventKind::Start);
        id
    }

    /// Creates an empty multicast group.
    pub fn create_group(&mut self) -> GroupId {
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(BTreeSet::new());
        id
    }

    /// Current members of a multicast group.
    ///
    /// # Panics
    ///
    /// Panics for a `GroupId` not created by this simulator.
    pub fn group_members(&self, group: GroupId) -> &BTreeSet<NodeId> {
        &self.groups[group.index()]
    }

    /// Adds a member to a group directly (harness convenience; nodes use
    /// [`Context::join_group`]).
    pub fn add_group_member(&mut self, group: GroupId, node: NodeId) {
        self.groups[group.index()].insert(node);
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable access to statistics (e.g. to [`Stats::reset`] between
    /// measurement phases).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// Number of events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Starts recording an event trace, keeping the most recent
    /// `capacity` events (see [`TraceEvent`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace events, oldest first (empty when tracing is
    /// off).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace
            .as_ref()
            .map(|t| t.events().cloned().collect())
            .unwrap_or_default()
    }

    /// Total events recorded since tracing was enabled (including ones
    /// evicted from the bounded buffer).
    pub fn trace_recorded(&self) -> u64 {
        self.trace.as_ref().map(|t| t.recorded()).unwrap_or(0)
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(event);
        }
    }

    /// Records a fault-injection note into the trace (used by the chaos
    /// harness so replayed traces show what was done to the network).
    pub(crate) fn record_fault(&mut self, desc: String) {
        let at = self.now;
        self.record(TraceEvent::FaultInjected { at, desc });
    }

    // ---- failure injection (Section IV fault model) ----

    /// Moves `node` into partition `label`; nodes communicate only
    /// within the same label (0 = default partition).
    pub fn partition(&mut self, node: NodeId, label: u32) {
        self.topo.set_partition(node, label);
    }

    /// Heals all partitions.
    pub fn heal_partitions(&mut self) {
        self.topo.heal_partitions();
    }

    /// Crashes a node: it stops sending and receiving, every timer it
    /// had pending is cancelled, and its pending reliable sends are
    /// cancelled (a crashed sender's transport state dies with it;
    /// each cancellation bumps the `reliable-cancelled` stat).
    ///
    /// The node's *volatile* state dies with the process: any armed
    /// storage fault is applied to its [`StableStore`] (unsynced tail
    /// lost, possibly a torn final record) and then
    /// [`Node::on_crashed_volatile_reset`] wipes the in-memory struct
    /// down to durable local configuration. [`Node::on_restarted`] must
    /// reconstruct from [`Context::storage`] and/or peers.
    pub fn crash(&mut self, node: NodeId) {
        let was_crashed = self.topo.is_crashed(node);
        self.topo.crash(node);
        if let Some(timers) = self.armed_timers.remove(&node) {
            // O(1) removal straight from the wheel: nothing is left
            // behind to fire, and no tombstone set can leak.
            for handle in timers.into_values() {
                self.queue.cancel(handle);
            }
        }
        let dead: Vec<u64> = self
            .pending_reliable
            .iter()
            .filter(|(_, p)| p.src == node)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            self.pending_reliable.remove(&id);
            self.stats.bump("reliable-cancelled", 1);
        }
        if was_crashed {
            return; // already down: storage faults and the wipe already ran
        }
        if let Some(stat) = self.storage[node.index()].on_crash() {
            self.stats.bump(stat, 1);
            self.record_fault(format!("{stat} node {}", node.index()));
        }
        if let Some(boxed) = self.nodes[node.index()].as_deref_mut() {
            boxed.on_crashed_volatile_reset();
        }
    }

    /// Restarts a crashed node and returns `true` when the node was
    /// actually down (`recovered`); in that case [`Node::on_restarted`]
    /// is scheduled so the node can re-arm timers and resynchronize.
    /// Restarting a live node is a no-op returning `false`.
    pub fn restart(&mut self, node: NodeId) -> bool {
        let recovered = self.topo.is_crashed(node);
        self.topo.restart(node);
        if recovered {
            *self.restart_counts.entry(node).or_insert(0) += 1;
            self.queue.push(self.now, node, EventKind::Restarted);
        }
        recovered
    }

    /// Completed crash/restart cycles for `node` (0 when it has never
    /// been restarted).
    pub fn restart_count(&self, node: NodeId) -> u64 {
        self.restart_counts.get(&node).copied().unwrap_or(0)
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.topo.is_crashed(node)
    }

    /// Cuts the directed link `from -> to`.
    pub fn cut_link(&mut self, from: NodeId, to: NodeId) {
        self.topo.cut_link(from, to);
    }

    /// Restores the directed link `from -> to`.
    pub fn restore_link(&mut self, from: NodeId, to: NodeId) {
        self.topo.restore_link(from, to);
    }

    /// Sets uniform message loss in permille (0–1000).
    pub fn set_loss_per_mille(&mut self, per_mille: u32) {
        self.topo.set_loss_per_mille(per_mille);
    }

    /// Sets the probability (permille, 0–1000) that a delivered message
    /// is duplicated: a second copy arrives with independently sampled
    /// latency. Reliable frames are shielded by the dedup window; plain
    /// sends see the duplicate.
    pub fn set_duplication_per_mille(&mut self, per_mille: u32) {
        self.dup_per_mille = per_mille.min(1000);
    }

    /// Sets the probability (permille, 0–1000) that a delivered message
    /// is delayed by a uniform extra amount up to `window`, which
    /// reorders it against later traffic.
    pub fn set_reorder(&mut self, per_mille: u32, window: Duration) {
        self.reorder_per_mille = per_mille.min(1000);
        self.reorder_window = window;
    }

    /// Scales all future timers set by `node` to `per_mille`/1000 of
    /// their nominal delay (1000 = nominal, 1500 = clock running 50%
    /// slow). Models alive-timer skew between protocol participants.
    pub fn set_timer_skew_per_mille(&mut self, node: NodeId, per_mille: u32) {
        if per_mille == 1000 {
            self.timer_skew.remove(&node);
        } else {
            self.timer_skew.insert(node, per_mille.max(1));
        }
    }

    /// Read access to a node's stable storage (e.g. for invariant
    /// checkers replaying a durable log).
    pub fn storage(&self, node: NodeId) -> &dyn StableStore {
        &*self.storage[node.index()]
    }

    /// Mutable access to a node's stable storage (fault injection:
    /// arming lying syncs, corrupting checkpoints, healing).
    pub fn storage_mut(&mut self, node: NodeId) -> &mut dyn StableStore {
        &mut *self.storage[node.index()]
    }

    /// Installs a factory that builds the stable-storage backend for
    /// every node added *from here on* (already-added nodes keep their
    /// stores). Without a factory every node gets an in-memory
    /// [`SimStore`]; deployments that want real files install one
    /// returning [`FileStore`](crate::FileStore)s (usually wrapped in
    /// [`FaultyStore`](crate::FaultyStore) so the chaos fault verbs
    /// keep working).
    pub fn set_storage_factory(
        &mut self,
        make: impl FnMut(NodeId) -> Box<dyn StableStore> + Send + 'static,
    ) {
        self.storage_factory = Some(Box::new(make));
    }

    /// Injects a storage fault into `node`'s backend. When the backend
    /// does not support the fault kind, nothing changes and the
    /// `storage-fault-unsupported` stat is bumped so chaos runs can
    /// tell a skipped verb from a survived one.
    pub fn inject_storage_fault(&mut self, node: NodeId, fault: StoreFault) {
        if !self.storage[node.index()].inject(fault) {
            self.stats.bump("storage-fault-unsupported", 1);
        }
    }

    // ---- node access ----

    /// Immutable access to a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics when the id is stale or the type does not match.
    pub fn node<N: Node>(&self, id: NodeId) -> &N {
        let any: &dyn Any = self.nodes[id.index()]
            .as_deref()
            // mykil-lint: allow(L001) -- documented panic: harness accessor, not a protocol path
            .expect("node is mid-callback");
        // mykil-lint: allow(L001) -- documented panic: harness accessor, not a protocol path
        any.downcast_ref::<N>().expect("node type mismatch")
    }

    /// Mutable access to a node downcast to its concrete type.
    ///
    /// Prefer [`Self::invoke`] when the mutation needs to send messages
    /// or set timers.
    ///
    /// # Panics
    ///
    /// Panics when the id is stale or the type does not match.
    pub fn node_mut<N: Node>(&mut self, id: NodeId) -> &mut N {
        let any: &mut dyn Any = self.nodes[id.index()]
            .as_deref_mut()
            // mykil-lint: allow(L001) -- documented panic: harness accessor, not a protocol path
            .expect("node is mid-callback");
        // mykil-lint: allow(L001) -- documented panic: harness accessor, not a protocol path
        any.downcast_mut::<N>().expect("node type mismatch")
    }

    /// Runs a closure against a node with a full [`Context`], applying
    /// any effects it produces. This is how test harnesses trigger
    /// protocol actions ("member 7: start a rejoin now").
    ///
    /// # Panics
    ///
    /// Panics when the id is stale or the type does not match.
    pub fn invoke<N: Node, T>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Context<'_>) -> T,
    ) -> T {
        let mut boxed = self.nodes[id.index()]
            .take()
            // mykil-lint: allow(L001) -- documented panic: harness accessor, not a protocol path
            .expect("node is mid-callback");
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            rng: &mut self.rng,
            stats: &mut self.stats,
            actions: Vec::new(),
            compute: Duration::ZERO,
            next_token: &mut self.next_token,
            next_msg_id: &mut self.next_msg_id,
            storage: &mut *self.storage[id.index()],
        };
        let any: &mut dyn Any = boxed.as_mut();
        // mykil-lint: allow(L001) -- documented panic: harness accessor, not a protocol path
        let node = any.downcast_mut::<N>().expect("node type mismatch");
        let out = f(node, &mut ctx);
        let actions = std::mem::take(&mut ctx.actions);
        self.nodes[id.index()] = Some(boxed);
        self.apply_actions(id, actions);
        out
    }

    // ---- event loop ----

    /// Processes events until the queue is empty or `deadline` passes;
    /// time ends at `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Processes events until the queue drains (the network goes quiet),
    /// up to a safety cap of `max` events.
    ///
    /// Returns `true` when the queue drained, `false` when the cap hit
    /// (e.g. periodic timers keep the queue non-empty forever).
    pub fn run_until_quiet(&mut self, max: u64) -> bool {
        for _ in 0..max {
            if self.queue.is_empty() {
                return true;
            }
            self.step();
        }
        self.queue.is_empty()
    }

    /// Processes a single event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "event queue went backwards");
        self.now = event.at;
        self.events_processed += 1;
        self.dispatch(event);
        true
    }

    fn dispatch(&mut self, event: Event) {
        let Event { dst, kind, .. } = event;
        // Drop deliveries/timers for crashed nodes (messages in flight
        // to a node that crashed are lost, like a closed TCP socket).
        match &kind {
            EventKind::Deliver {
                from, kind: mkind, ..
            } if self.topo.is_crashed(dst) => {
                let (from, mkind) = (*from, *mkind);
                self.record(TraceEvent::Dropped {
                    at: self.now,
                    from,
                    to: dst,
                    kind: mkind,
                    reason: DropReason::Crashed,
                });
                return;
            }
            EventKind::Timer { token, .. } => {
                // A firing timer is by definition still armed: cancels
                // (explicit or via crash) removed the event from the
                // wheel, so no tombstone check is needed here.
                if let Some(set) = self.armed_timers.get_mut(&dst) {
                    set.remove(token);
                }
                if self.topo.is_crashed(dst) {
                    return;
                }
            }
            EventKind::Restarted if self.topo.is_crashed(dst) => {
                return; // crashed again before the notification fired
            }
            EventKind::Retransmit { msg_id } => {
                let msg_id = *msg_id;
                self.handle_retransmit(msg_id);
                return;
            }
            _ => {}
        }
        // Reliable-layer frames are handled by the destination's
        // "network layer" before (or instead of) the node callback.
        match &kind {
            EventKind::Deliver {
                from,
                transport: Transport::Ack { msg_id },
                ..
            } => {
                let (from, msg_id) = (*from, *msg_id);
                if self.pending_reliable.remove(&msg_id).is_some() {
                    self.stats.bump("reliable-acked", 1);
                    self.with_node_ctx(dst, |node, ctx| {
                        node.on_reliable_acked(ctx, from, MsgToken(msg_id));
                    });
                }
                return;
            }
            EventKind::Deliver {
                from,
                kind: mkind,
                transport: Transport::Reliable { msg_id },
                ..
            } => {
                let (from, msg_id, mkind) = (*from, *msg_id, *mkind);
                // Always ack — a duplicate usually means our previous
                // ack was lost, so the sender needs another one.
                self.send_ack(dst, from, msg_id);
                self.maybe_sweep_dedup();
                let now = self.now;
                if !self.dedup.entry((dst, from)).or_default().fresh(msg_id, now) {
                    self.stats.bump("reliable-dup-dropped", 1);
                    self.record(TraceEvent::Dropped {
                        at: self.now,
                        from,
                        to: dst,
                        kind: mkind,
                        reason: DropReason::Duplicate,
                    });
                    return;
                }
                // Fresh: fall through to normal delivery below.
            }
            _ => {}
        }
        let Some(mut boxed) = self.nodes[dst.index()].take() else {
            return;
        };
        let mut ctx = Context {
            now: self.now,
            self_id: dst,
            rng: &mut self.rng,
            stats: &mut self.stats,
            actions: Vec::new(),
            compute: Duration::ZERO,
            next_token: &mut self.next_token,
            next_msg_id: &mut self.next_msg_id,
            storage: &mut *self.storage[dst.index()],
        };
        let trace_note = match &kind {
            EventKind::Deliver {
                from,
                bytes,
                kind: mkind,
                ..
            } => Some(TraceEvent::Delivered {
                at: self.now,
                from: *from,
                to: dst,
                kind: mkind,
                len: bytes.len(),
            }),
            EventKind::Timer { tag, .. } => Some(TraceEvent::TimerFired {
                at: self.now,
                node: dst,
                tag: *tag,
            }),
            EventKind::Start | EventKind::Restarted | EventKind::Retransmit { .. } => None,
        };
        match kind {
            EventKind::Deliver { from, bytes, .. } => boxed.on_message(&mut ctx, from, &bytes),
            EventKind::Timer { tag, .. } => boxed.on_timer(&mut ctx, tag),
            EventKind::Start => boxed.on_start(&mut ctx),
            EventKind::Restarted => boxed.on_restarted(&mut ctx),
            EventKind::Retransmit { .. } => {} // handled above
        }
        let actions = std::mem::take(&mut ctx.actions);
        self.nodes[dst.index()] = Some(boxed);
        if let Some(note) = trace_note {
            self.record(note);
        }
        self.apply_actions(dst, actions);
    }

    /// Runs a node callback with a fresh [`Context`] and applies its
    /// effects (internal cousin of [`Self::invoke`] for trait-object
    /// callbacks like ack/expiry notifications).
    fn with_node_ctx(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Context<'_>)) {
        let Some(mut boxed) = self.nodes[id.index()].take() else {
            return;
        };
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            rng: &mut self.rng,
            stats: &mut self.stats,
            actions: Vec::new(),
            compute: Duration::ZERO,
            next_token: &mut self.next_token,
            next_msg_id: &mut self.next_msg_id,
            storage: &mut *self.storage[id.index()],
        };
        f(boxed.as_mut(), &mut ctx);
        let actions = std::mem::take(&mut ctx.actions);
        self.nodes[id.index()] = Some(boxed);
        self.apply_actions(id, actions);
    }

    /// Attempts one wire transmission, honouring the failure model.
    fn transmit(
        &mut self,
        src: NodeId,
        to: NodeId,
        kind: &'static str,
        bytes: Vec<u8>,
        after: Duration,
        transport: Transport,
    ) {
        match self.topo.delivery_verdict(src, to, &mut self.rng) {
            Ok(()) => {
                let mut delay = self.latency.sample(bytes.len(), &mut self.rng);
                // Chaos knobs consume randomness only when configured,
                // so runs without them stay byte-identical.
                if self.reorder_per_mille > 0
                    && self.rng.gen_range(1000) < self.reorder_per_mille as u64
                    && self.reorder_window > Duration::ZERO
                {
                    let extra = self.rng.gen_range(self.reorder_window.as_micros());
                    delay += Duration::from_micros(extra);
                }
                if self.dup_per_mille > 0 && self.rng.gen_range(1000) < self.dup_per_mille as u64 {
                    let dup_delay = self.latency.sample(bytes.len(), &mut self.rng);
                    self.queue.push(
                        self.now + after + dup_delay,
                        to,
                        EventKind::Deliver {
                            from: src,
                            bytes: bytes.clone(),
                            kind,
                            transport,
                        },
                    );
                }
                self.queue.push(
                    self.now + after + delay,
                    to,
                    EventKind::Deliver {
                        from: src,
                        bytes,
                        kind,
                        transport,
                    },
                );
            }
            Err(reason) => self.record(TraceEvent::Dropped {
                at: self.now,
                from: src,
                to,
                kind,
                reason,
            }),
        }
    }

    /// Emits the network-layer ack for a received reliable frame. Acks
    /// travel the same lossy network as everything else.
    /// Evicts dedup windows idle past the configured horizon. Runs at
    /// most once per horizon, from the reliable receive path, so the
    /// sweep schedule is a pure function of the event timeline
    /// (deterministic across replays; no RNG, ordered iteration).
    fn maybe_sweep_dedup(&mut self) {
        let horizon = self.dedup_idle_horizon.as_micros();
        if horizon == 0
            || self.now.as_micros() - self.last_dedup_sweep.as_micros() < horizon
        {
            return;
        }
        self.last_dedup_sweep = self.now;
        let cutoff = self.now.as_micros().saturating_sub(horizon);
        let before = self.dedup.len();
        self.dedup.retain(|_, w| w.last_seen.as_micros() >= cutoff);
        let evicted = before - self.dedup.len();
        if evicted > 0 {
            self.stats.bump("dedup-evicted", evicted as u64);
        }
        self.stats.set("dedup-windows", self.dedup.len() as u64);
    }

    fn send_ack(&mut self, acker: NodeId, to: NodeId, msg_id: u64) {
        self.stats.record_send("reliable-ack", ACK_WIRE_BYTES, 1);
        self.transmit(
            acker,
            to,
            "reliable-ack",
            Vec::new(),
            Duration::ZERO,
            Transport::Ack { msg_id },
        );
    }

    /// Backoff before the next retransmission after `attempts`
    /// transmissions: `base << (attempts - 1)`, saturating.
    fn backoff_after(&self, attempts: u32) -> Duration {
        let factor = 1u64 << (attempts - 1).min(16);
        Duration::from_micros(self.reliable_base.as_micros().saturating_mul(factor))
    }

    /// A retransmission timer fired: resend, or give up and notify.
    fn handle_retransmit(&mut self, msg_id: u64) {
        let Some(pending) = self.pending_reliable.get(&msg_id) else {
            return; // acknowledged or cancelled in the meantime
        };
        if pending.attempts >= self.reliable_max_attempts {
            // mykil-lint: allow(L001) -- presence checked by the guard above
            let pending = self.pending_reliable.remove(&msg_id).expect("checked above");
            self.stats.bump("reliable-expired", 1);
            if self.topo.is_crashed(pending.src) {
                return; // crashed senders learn nothing (like timers)
            }
            let (to, kind) = (pending.to, pending.kind);
            self.with_node_ctx(pending.src, |node, ctx| {
                node.on_reliable_expired(ctx, to, kind, MsgToken(msg_id));
            });
            return;
        }
        let pending = self
            .pending_reliable
            .get_mut(&msg_id)
            // mykil-lint: allow(L001) -- presence checked by the guard above
            .expect("checked above");
        pending.attempts += 1;
        let (src, to, kind, bytes, attempts) = (
            pending.src,
            pending.to,
            pending.kind,
            pending.bytes.clone(),
            pending.attempts,
        );
        self.stats.bump("reliable-retransmits", 1);
        self.stats.record_send(kind, bytes.len(), 1);
        self.record(TraceEvent::Retransmitted {
            at: self.now,
            from: src,
            to,
            kind,
            attempt: attempts,
        });
        self.transmit(
            src,
            to,
            kind,
            bytes,
            Duration::ZERO,
            Transport::Reliable { msg_id },
        );
        let next = self.backoff_after(attempts);
        self.queue
            .push(self.now + next, src, EventKind::Retransmit { msg_id });
    }

    fn apply_actions(&mut self, src: NodeId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send {
                    to,
                    kind,
                    bytes,
                    after,
                } => {
                    self.stats.record_send(kind, bytes.len(), 1);
                    self.transmit(src, to, kind, bytes, after, Transport::Plain);
                }
                Action::SendReliable {
                    to,
                    kind,
                    bytes,
                    msg_id,
                    after,
                } => {
                    self.stats.record_send(kind, bytes.len(), 1);
                    self.pending_reliable.insert(
                        msg_id,
                        PendingReliable {
                            src,
                            to,
                            kind,
                            bytes: bytes.clone(),
                            attempts: 1,
                        },
                    );
                    self.transmit(src, to, kind, bytes, after, Transport::Reliable { msg_id });
                    let next = self.backoff_after(1);
                    self.queue.push(
                        self.now + after + next,
                        src,
                        EventKind::Retransmit { msg_id },
                    );
                }
                Action::CancelReliable { msg_id } => {
                    self.pending_reliable.remove(&msg_id);
                }
                Action::CancelReliableTo { peer } => {
                    let dead: Vec<u64> = self
                        .pending_reliable
                        .iter()
                        .filter(|(_, p)| p.src == src && p.to == peer)
                        .map(|(id, _)| *id)
                        .collect();
                    for id in dead {
                        self.pending_reliable.remove(&id);
                        self.stats.bump("reliable-cancelled", 1);
                    }
                }
                Action::Multicast {
                    group,
                    kind,
                    bytes,
                    after,
                } => {
                    // BTreeSet iteration is already ordered, so the
                    // delivery schedule is deterministic by construction.
                    let members: Vec<NodeId> = self.groups[group.index()]
                        .iter()
                        .copied()
                        .filter(|&n| n != src)
                        .collect();
                    self.stats.record_send(kind, bytes.len(), members.len());
                    for to in members {
                        self.transmit(src, to, kind, bytes.clone(), after, Transport::Plain);
                    }
                }
                Action::SetTimer {
                    delay,
                    tag,
                    token,
                    after,
                } => {
                    let delay = match self.timer_skew.get(&src) {
                        Some(&per_mille) => Duration::from_micros(
                            delay.as_micros().saturating_mul(per_mille as u64) / 1000,
                        ),
                        None => delay,
                    };
                    let handle = self.queue.push(
                        self.now + after + delay,
                        src,
                        EventKind::Timer { tag, token },
                    );
                    self.armed_timers.entry(src).or_default().insert(token, handle);
                }
                Action::CancelTimer { token } => {
                    // Tokens are node-scoped in practice but globally
                    // unique, so removing from the caller's map is
                    // exact; the wheel drops the event immediately.
                    if let Some(handle) = self
                        .armed_timers
                        .get_mut(&src)
                        .and_then(|timers| timers.remove(&token))
                    {
                        self.queue.cancel(handle);
                    }
                }
                Action::JoinGroup { group } => {
                    self.groups[group.index()].insert(src);
                }
                Action::LeaveGroup { group } => {
                    self.groups[group.index()].remove(&src);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts messages and echoes pings.
    struct Echo {
        received: u32,
    }

    impl Node for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
            self.received += 1;
            if bytes == b"ping" {
                ctx.send(from, "pong", b"pong".to_vec());
            }
        }
    }

    struct Pinger {
        target: NodeId,
        pongs: u32,
        pong_time: Option<Time>,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.target, "ping", b"ping".to_vec());
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, bytes: &[u8]) {
            if bytes == b"pong" {
                self.pongs += 1;
                self.pong_time = Some(ctx.now());
            }
        }
    }

    fn ping_pong_sim(seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        let echo = sim.add_node(Echo { received: 0 });
        let pinger = sim.add_node(Pinger {
            target: echo,
            pongs: 0,
            pong_time: None,
        });
        (sim, echo, pinger)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, echo, pinger) = ping_pong_sim(1);
        sim.run_until(Time::from_millis(100));
        assert_eq!(sim.node::<Echo>(echo).received, 1);
        assert_eq!(sim.node::<Pinger>(pinger).pongs, 1);
        // Two LAN hops: at least 2 * 200us.
        let t = sim.node::<Pinger>(pinger).pong_time.unwrap();
        assert!(t >= Time::from_micros(400));
        assert!(t <= Time::from_millis(2));
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut s1, _, p1) = ping_pong_sim(7);
        let (mut s2, _, p2) = ping_pong_sim(7);
        s1.run_until(Time::from_millis(10));
        s2.run_until(Time::from_millis(10));
        assert_eq!(
            s1.node::<Pinger>(p1).pong_time,
            s2.node::<Pinger>(p2).pong_time
        );
        assert_eq!(s1.events_processed(), s2.events_processed());
    }

    #[test]
    fn stats_account_sends() {
        let (mut sim, _, _) = ping_pong_sim(2);
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.stats().kind("ping").messages_sent, 1);
        assert_eq!(sim.stats().kind("ping").bytes_sent, 4);
        assert_eq!(sim.stats().kind("pong").messages_sent, 1);
    }

    #[test]
    fn crash_blocks_delivery() {
        let (mut sim, echo, pinger) = ping_pong_sim(3);
        sim.crash(echo);
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.node::<Echo>(echo).received, 0);
        assert_eq!(sim.node::<Pinger>(pinger).pongs, 0);
        // Bytes are still counted as sent (transmission attempted).
        assert_eq!(sim.stats().kind("ping").messages_sent, 1);
    }

    #[test]
    fn partition_blocks_then_heals() {
        let (mut sim, echo, pinger) = ping_pong_sim(4);
        sim.partition(echo, 1);
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.node::<Pinger>(pinger).pongs, 0);
        sim.heal_partitions();
        // Re-trigger a ping via invoke.
        let target = echo;
        sim.invoke(pinger, |p: &mut Pinger, ctx| {
            ctx.send(target, "ping", b"ping".to_vec());
            p.pongs = 0;
        });
        sim.run_until(Time::from_millis(20));
        assert_eq!(sim.node::<Pinger>(pinger).pongs, 1);
    }

    struct Ticker {
        fired: Vec<u64>,
        cancel_me: Option<crate::context::TimerToken>,
    }

    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_millis(5), 1);
            let tok = ctx.set_timer(Duration::from_millis(10), 2);
            ctx.set_timer(Duration::from_millis(15), 3);
            self.cancel_me = Some(tok);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            self.fired.push(tag);
            if tag == 1 {
                if let Some(tok) = self.cancel_me.take() {
                    ctx.cancel_timer(tok);
                }
            }
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut sim = Simulator::new(5);
        let t = sim.add_node(Ticker {
            fired: Vec::new(),
            cancel_me: None,
        });
        sim.run_until(Time::from_millis(100));
        assert_eq!(sim.node::<Ticker>(t).fired, vec![1, 3]);
    }

    struct Caster {
        group: GroupId,
    }

    impl Node for Caster {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.join_group(self.group);
            ctx.set_timer(Duration::from_millis(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            ctx.multicast(self.group, "mc", vec![0xaa; 16]);
        }
    }

    struct Listener {
        group: GroupId,
        got: u32,
    }

    impl Node for Listener {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.join_group(self.group);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {
            self.got += 1;
        }
    }

    #[test]
    fn multicast_reaches_members_not_sender() {
        let mut sim = Simulator::new(6);
        let g = sim.create_group();
        let caster = sim.add_node(Caster { group: g });
        let l1 = sim.add_node(Listener { group: g, got: 0 });
        let l2 = sim.add_node(Listener { group: g, got: 0 });
        let other_group = sim.create_group();
        let outsider = sim.add_node(Listener {
            group: other_group,
            got: 0,
        });
        sim.run_until(Time::from_millis(50));
        assert_eq!(sim.node::<Listener>(l1).got, 1);
        assert_eq!(sim.node::<Listener>(l2).got, 1);
        assert_eq!(sim.node::<Listener>(outsider).got, 0);
        // Multicast accounted once as sent, twice as delivered... plus
        // the sender itself is excluded.
        let mc = sim.stats().kind("mc");
        assert_eq!(mc.messages_sent, 1);
        assert_eq!(mc.bytes_sent, 16);
        assert_eq!(mc.messages_delivered, 2);
        assert_eq!(mc.bytes_delivered, 32);
        assert!(sim.group_members(g).contains(&caster));
    }

    #[test]
    fn run_until_quiet_drains() {
        let (mut sim, _, _) = ping_pong_sim(8);
        assert!(sim.run_until_quiet(1000));
        assert_eq!(sim.events_processed(), 4); // 2 starts + 2 deliveries
    }

    #[test]
    fn cut_link_is_one_way() {
        let (mut sim, echo, pinger) = ping_pong_sim(9);
        sim.cut_link(NodeId::from_index(pinger.index()), echo);
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.node::<Echo>(echo).received, 0);
        sim.restore_link(NodeId::from_index(pinger.index()), echo);
        sim.invoke(pinger, |p: &mut Pinger, ctx| {
            let t = p.target;
            ctx.send(t, "ping", b"ping".to_vec());
        });
        sim.run_until(Time::from_millis(20));
        assert_eq!(sim.node::<Echo>(echo).received, 1);
    }

    #[test]
    fn compute_charge_delays_sends() {
        struct Slow {
            target: NodeId,
        }
        impl Node for Slow {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.charge_compute(Duration::from_millis(100));
                ctx.send(self.target, "x", vec![1]);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        }
        struct Sink {
            arrival: Option<Time>,
        }
        impl Node for Sink {
            fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {
                self.arrival = Some(ctx.now());
            }
        }
        let mut sim = Simulator::new(10);
        let sink = sim.add_node(Sink { arrival: None });
        sim.add_node(Slow { target: sink });
        sim.run_until(Time::from_secs(1));
        let arrival = sim.node::<Sink>(sink).arrival.unwrap();
        assert!(arrival >= Time::from_millis(100), "{arrival}");
    }

    /// Counts messages in RAM, committing each to the WAL; a crash
    /// wipes the RAM counter and recovery must rebuild it from storage.
    struct DurableCounter {
        count: u32,
    }

    impl Node for DurableCounter {
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, bytes: &[u8]) {
            self.count += 1;
            ctx.storage().wal_commit(bytes.to_vec());
        }
        fn on_crashed_volatile_reset(&mut self) {
            self.count = 0;
        }
        fn on_restarted(&mut self, ctx: &mut Context<'_>) {
            self.count = ctx.storage().load().wal.len() as u32;
        }
    }

    #[test]
    fn crash_wipes_volatile_state_and_recovery_replays_storage() {
        let mut sim = Simulator::new(12);
        let n = sim.add_node(DurableCounter { count: 0 });
        let driver = sim.add_node(Silent2);
        for _ in 0..3 {
            sim.invoke(driver, |_: &mut Silent2, ctx| {
                ctx.send(n, "x", vec![1]);
            });
        }
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node::<DurableCounter>(n).count, 3);

        sim.crash(n);
        // The wipe happened at crash time, not restart time.
        assert_eq!(sim.node::<DurableCounter>(n).count, 0);
        assert!(sim.restart(n));
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node::<DurableCounter>(n).count, 3, "recovery lost the log");

        // An armed lost-tail fault makes the next commits vanish.
        sim.storage_mut(n).arm_lying_sync(false);
        sim.invoke(driver, |_: &mut Silent2, ctx| {
            ctx.send(n, "x", vec![2]);
        });
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node::<DurableCounter>(n).count, 4);
        sim.crash(n);
        assert_eq!(sim.stats().counter("storage-lost-tail"), 1);
        assert!(sim.restart(n));
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node::<DurableCounter>(n).count, 3, "lost tail came back");
    }

    struct Silent2;
    impl Node for Silent2 {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
    }

    #[test]
    fn lossy_network_drops_some() {
        let mut sim = Simulator::new(11);
        let g = sim.create_group();
        struct Blaster {
            group: GroupId,
        }
        impl Node for Blaster {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.join_group(self.group);
                for _ in 0..100 {
                    ctx.multicast(self.group, "blast", vec![0; 8]);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        }
        let listener = sim.add_node(Listener { group: g, got: 0 });
        sim.add_node(Blaster { group: g });
        sim.set_loss_per_mille(500);
        sim.run_until(Time::from_secs(1));
        let got = sim.node::<Listener>(listener).got;
        assert!(got > 10 && got < 90, "got={got}");
    }
}

#[cfg(test)]
mod reliable_tests {
    use super::*;

    /// Sends one reliable message on start and records the outcome.
    struct RelSender {
        target: NodeId,
        token: Option<MsgToken>,
        acked: Vec<(NodeId, MsgToken)>,
        expired: Vec<(NodeId, &'static str, MsgToken)>,
    }

    impl RelSender {
        fn new(target: NodeId) -> Self {
            RelSender {
                target,
                token: None,
                acked: Vec::new(),
                expired: Vec::new(),
            }
        }
    }

    impl Node for RelSender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.token = Some(ctx.send_reliable(self.target, "rel", b"payload".to_vec()));
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        fn on_reliable_acked(&mut self, _ctx: &mut Context<'_>, peer: NodeId, msg: MsgToken) {
            self.acked.push((peer, msg));
        }
        fn on_reliable_expired(
            &mut self,
            _ctx: &mut Context<'_>,
            to: NodeId,
            kind: &'static str,
            msg: MsgToken,
        ) {
            self.expired.push((to, kind, msg));
        }
    }

    struct Counter {
        got: u32,
    }

    impl Node for Counter {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {
            self.got += 1;
        }
    }

    #[test]
    fn reliable_delivers_and_acks_on_clean_network() {
        let mut sim = Simulator::new(1);
        let sink = sim.add_node(Counter { got: 0 });
        let sender = sim.add_node(RelSender::new(sink));
        assert!(sim.run_until_quiet(10_000));
        assert_eq!(sim.node::<Counter>(sink).got, 1);
        let s = sim.node::<RelSender>(sender);
        assert_eq!(s.acked, vec![(sink, s.token.unwrap())]);
        assert!(s.expired.is_empty());
        assert_eq!(sim.stats().counter("reliable-acked"), 1);
        assert_eq!(sim.stats().counter("reliable-retransmits"), 0);
        assert_eq!(sim.stats().kind("rel").messages_sent, 1);
        assert_eq!(sim.stats().kind("reliable-ack").messages_sent, 1);
    }

    #[test]
    fn reliable_retransmits_through_loss_exactly_once_delivery() {
        // 60% loss: a plain send would stall often; the reliable layer
        // keeps retrying and the dedup window shields the receiver.
        let mut sim = Simulator::new(7);
        sim.set_reliable_policy(Duration::from_millis(10), 20);
        sim.enable_trace(10_000);
        let sink = sim.add_node(Counter { got: 0 });
        let sender = sim.add_node(RelSender::new(sink));
        sim.set_loss_per_mille(600);
        assert!(sim.run_until_quiet(100_000));
        assert_eq!(sim.node::<Counter>(sink).got, 1, "delivered exactly once");
        let s = sim.node::<RelSender>(sender);
        assert_eq!(s.acked.len(), 1);
        assert!(s.expired.is_empty());
        let retx = sim.stats().counter("reliable-retransmits");
        assert!(retx > 0, "loss should force at least one retransmission");
        // Every frame that reached the receiver beyond the first was
        // suppressed by the dedup window: exactly one node delivery.
        let node_deliveries = sim
            .trace_events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Delivered { kind: "rel", .. }))
            .count();
        assert_eq!(node_deliveries, 1);
    }

    #[test]
    fn reliable_expires_against_dead_peer() {
        let mut sim = Simulator::new(3);
        sim.set_reliable_policy(Duration::from_millis(10), 4);
        let sink = sim.add_node(Counter { got: 0 });
        let sender = sim.add_node(RelSender::new(sink));
        sim.crash(sink);
        assert!(sim.run_until_quiet(10_000));
        let s = sim.node::<RelSender>(sender);
        assert!(s.acked.is_empty());
        assert_eq!(s.expired, vec![(sink, "rel", s.token.unwrap())]);
        assert_eq!(sim.stats().counter("reliable-expired"), 1);
        // 4 attempts total: 1 initial + 3 retransmissions.
        assert_eq!(sim.stats().counter("reliable-retransmits"), 3);
        assert_eq!(sim.stats().kind("rel").messages_sent, 4);
    }

    #[test]
    fn cancel_reliable_stops_retries_and_callbacks() {
        struct Canceller {
            target: NodeId,
            outcomes: u32,
        }
        impl Node for Canceller {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let tok = ctx.send_reliable(self.target, "rel", vec![1]);
                ctx.cancel_reliable(tok);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
            fn on_reliable_acked(&mut self, _c: &mut Context<'_>, _p: NodeId, _m: MsgToken) {
                self.outcomes += 1;
            }
            fn on_reliable_expired(
                &mut self,
                _c: &mut Context<'_>,
                _t: NodeId,
                _k: &'static str,
                _m: MsgToken,
            ) {
                self.outcomes += 1;
            }
        }
        let mut sim = Simulator::new(4);
        let sink = sim.add_node(Counter { got: 0 });
        // Crash the sink so the (single, pre-cancel) transmission is
        // dropped and any surviving retry logic would be visible.
        sim.crash(sink);
        let sender = sim.add_node(Canceller {
            target: sink,
            outcomes: 0,
        });
        assert!(sim.run_until_quiet(10_000));
        assert_eq!(sim.node::<Canceller>(sender).outcomes, 0);
        assert_eq!(sim.stats().counter("reliable-retransmits"), 0);
        assert_eq!(sim.stats().counter("reliable-expired"), 0);
    }

    #[test]
    fn backoff_doubles_between_attempts() {
        let mut sim = Simulator::new(5);
        sim.set_reliable_policy(Duration::from_millis(10), 4);
        sim.enable_trace(100);
        let sink = sim.add_node(Counter { got: 0 });
        sim.add_node(RelSender::new(sink));
        sim.crash(sink);
        assert!(sim.run_until_quiet(10_000));
        let times: Vec<u64> = sim
            .trace_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Retransmitted { at, attempt, .. } => {
                    Some((*attempt, at.as_micros()))
                }
                _ => None,
            })
            .map(|(_, t)| t)
            .collect();
        // Retransmissions at base, base+2*base, base+2*base+4*base.
        assert_eq!(times, vec![10_000, 30_000, 70_000]);
    }

    #[test]
    fn duplicate_is_reacked_but_not_redelivered() {
        // Cut the ack path (sink -> sender) for a while: the sender
        // keeps retransmitting, the sink sees duplicates, processes the
        // payload once, and acks every copy.
        let mut sim = Simulator::new(6);
        sim.set_reliable_policy(Duration::from_millis(10), 10);
        let sink = sim.add_node(Counter { got: 0 });
        let sender = sim.add_node(RelSender::new(sink));
        sim.cut_link(sink, sender);
        sim.run_for(Duration::from_millis(35)); // initial + 2 retransmits arrive
        sim.restore_link(sink, sender);
        assert!(sim.run_until_quiet(100_000));
        assert_eq!(sim.node::<Counter>(sink).got, 1);
        assert_eq!(sim.node::<RelSender>(sender).acked.len(), 1);
        assert!(sim.stats().counter("reliable-dup-dropped") >= 1);
        // Acks were attempted for the original and each duplicate.
        assert!(sim.stats().kind("reliable-ack").messages_sent >= 2);
    }

    #[test]
    fn dedup_window_is_bounded() {
        struct Flood {
            target: NodeId,
        }
        impl Node for Flood {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for i in 0..(DEDUP_WINDOW + 40) {
                    ctx.send_reliable(self.target, "flood", vec![i as u8]);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        }
        let mut sim = Simulator::new(8);
        let sink = sim.add_node(Counter { got: 0 });
        sim.add_node(Flood { target: sink });
        assert!(sim.run_until_quiet(100_000));
        assert_eq!(sim.node::<Counter>(sink).got, (DEDUP_WINDOW + 40) as u32);
        let windows: usize = sim.dedup.values().map(|w| w.order.len()).sum();
        assert!(windows <= DEDUP_WINDOW);
    }

    #[test]
    fn crash_cancels_the_crashed_senders_pending_reliables() {
        // A dead sink keeps the send pending; crashing the *sender*
        // must then drop it outright — no retransmits keep burning
        // bandwidth for a ghost, and no expiry callback fires into the
        // crashed (or later restarted) node.
        let mut sim = Simulator::new(31);
        sim.set_reliable_policy(Duration::from_millis(10), 50);
        let sink = sim.add_node(Counter { got: 0 });
        sim.crash(sink);
        let sender = sim.add_node(RelSender::new(sink));
        sim.run_for(Duration::from_millis(25));
        let retx_at_crash = sim.stats().counter("reliable-retransmits");
        assert!(retx_at_crash >= 1, "send was not pending yet");

        sim.crash(sender);
        assert_eq!(sim.stats().counter("reliable-cancelled"), 1);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.stats().counter("reliable-retransmits"), retx_at_crash);
        assert_eq!(sim.stats().counter("reliable-expired"), 0);
        let s = sim.node::<RelSender>(sender);
        assert!(s.acked.is_empty());
        assert!(s.expired.is_empty(), "expiry fired on a crashed sender");
    }

    #[test]
    fn cancel_reliable_to_cancels_only_that_peers_sends() {
        /// Sends one reliable to each of two dead peers, then drops the
        /// first peer (as an evicting controller would) at t=5ms.
        struct TwoPeers {
            first: NodeId,
            second: NodeId,
            expired: Vec<NodeId>,
        }
        impl Node for TwoPeers {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_reliable(self.first, "rel-a", vec![1]);
                ctx.send_reliable(self.first, "rel-b", vec![2]);
                ctx.send_reliable(self.second, "rel-c", vec![3]);
                ctx.set_timer(Duration::from_millis(5), 0);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                ctx.cancel_reliable_to(self.first);
            }
            fn on_reliable_expired(
                &mut self,
                _ctx: &mut Context<'_>,
                to: NodeId,
                _kind: &'static str,
                _msg: MsgToken,
            ) {
                self.expired.push(to);
            }
        }
        let mut sim = Simulator::new(32);
        sim.set_reliable_policy(Duration::from_millis(10), 3);
        let first = sim.add_node(Counter { got: 0 });
        let second = sim.add_node(Counter { got: 0 });
        sim.crash(first);
        sim.crash(second);
        let sender = sim.add_node(TwoPeers {
            first,
            second,
            expired: Vec::new(),
        });
        assert!(sim.run_until_quiet(1_000_000));
        // Both sends to `first` were cancelled silently; the one to
        // `second` ran its course and expired.
        assert_eq!(sim.stats().counter("reliable-cancelled"), 2);
        assert_eq!(sim.stats().counter("reliable-expired"), 1);
        assert_eq!(sim.node::<TwoPeers>(sender).expired, vec![second]);
    }

    #[test]
    fn crash_cancels_armed_timers_across_restart() {
        /// Arms one long timer on first start; deliberately does *not*
        /// re-arm in `on_restarted`, so any fire after the
        /// crash/restart cycle is a leak of the pre-crash timer.
        struct OneShot {
            fires: u32,
            restarts: u32,
        }
        impl Node for OneShot {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_millis(50), 7);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {
                self.fires += 1;
            }
            fn on_restarted(&mut self, _ctx: &mut Context<'_>) {
                self.restarts += 1;
            }
        }
        let mut sim = Simulator::new(33);
        let node = sim.add_node(OneShot { fires: 0, restarts: 0 });
        sim.run_for(Duration::from_millis(10));
        sim.crash(node);
        sim.run_for(Duration::from_millis(10));
        assert!(sim.restart(node));
        sim.run_for(Duration::from_millis(200));
        let n = sim.node::<OneShot>(node);
        assert_eq!(n.restarts, 1);
        assert_eq!(n.fires, 0, "a timer armed before the crash leaked through restart");
    }

    /// Satellite fix (ISSUE 7): the pre-wheel scheduler tracked cancels
    /// in a `cancelled` tombstone set that only shrank when the doomed
    /// event *fired* — timers dropped by a crash leaked their tokens
    /// forever. The wheel cancels in place; after any mix of explicit
    /// cancels, crashes, and fires the armed-timer bookkeeping must
    /// exactly mirror the queue with no residue.
    #[test]
    fn cancelled_and_crashed_timers_leave_no_residue() {
        struct Armer {
            tokens: Vec<crate::context::TimerToken>,
        }
        impl Node for Armer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                // Eight long-lived timers; two cancelled immediately.
                self.tokens = (0..8)
                    .map(|tag| {
                        // Tag 0 slightly earlier so it fires first and
                        // can cancel a sibling from inside a handler.
                        let delay = Duration::from_secs(if tag == 0 { 59 } else { 60 });
                        ctx.set_timer(delay, tag)
                    })
                    .collect();
                ctx.cancel_timer(self.tokens[1]);
                ctx.cancel_timer(self.tokens[2]);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
                if tag == 0 {
                    ctx.cancel_timer(self.tokens[3]);
                }
            }
        }
        let mut sim = Simulator::new(34);
        let a = sim.add_node(Armer { tokens: Vec::new() });
        let b = sim.add_node(Armer { tokens: Vec::new() });
        sim.run_for(Duration::from_millis(1));
        assert!(sim.timer_accounting_consistent());
        // Crash one armer with all eight timers pending.
        sim.crash(a);
        assert!(sim.timer_accounting_consistent());
        assert!(
            !sim.armed_timers.contains_key(&a),
            "crashed node left armed-timer entries behind"
        );
        // Let the surviving armer's timers fire (tag 0 cancels tag 3).
        sim.run_for(Duration::from_secs(120));
        assert!(sim.timer_accounting_consistent());
        assert!(
            sim.armed_timers.get(&b).is_none_or(|m| m.is_empty()),
            "fired timers left armed-timer entries behind"
        );
        assert_eq!(sim.queue.pending_timers(), 0, "timer events leaked in the queue");
    }

    /// Satellite fix (ISSUE 7): dedup windows for pairs that stopped
    /// talking are evicted after the idle horizon, and the stats
    /// surface both the eviction count and the live-window gauge.
    #[test]
    fn idle_dedup_windows_are_evicted() {
        struct Pinger {
            target: NodeId,
            rounds: u32,
        }
        impl Node for Pinger {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_reliable(self.target, "ping", vec![0]);
                ctx.set_timer(Duration::from_secs(1), 0);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                if self.rounds > 0 {
                    self.rounds -= 1;
                    ctx.send_reliable(self.target, "ping", vec![0]);
                    ctx.set_timer(Duration::from_secs(1), 0);
                }
            }
        }
        let mut sim = Simulator::new(35);
        sim.set_dedup_idle_horizon(Duration::from_secs(5));
        let sink_a = sim.add_node(Counter { got: 0 });
        let sink_b = sim.add_node(Counter { got: 0 });
        // One burst to sink_a, then silence towards it; steady pings to
        // sink_b keep the simulation (and the sweep) running.
        sim.add_node(Pinger { target: sink_a, rounds: 0 });
        sim.add_node(Pinger { target: sink_b, rounds: 30 });
        assert!(sim.run_until_quiet(1_000_000));
        // The (sink_a, pinger) window went idle > 5s before the last
        // sweep and must be gone; the (sink_b, pinger) window survives.
        assert_eq!(sim.dedup_windows(), 1);
        assert!(sim.stats().counter("dedup-evicted") >= 1);
        assert_eq!(sim.stats().counter("dedup-windows"), 1);
        // Both sinks still saw every payload exactly once.
        assert_eq!(sim.node::<Counter>(sink_a).got, 1);
        assert_eq!(sim.node::<Counter>(sink_b).got, 31);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::DropReason;

    struct Silent;
    impl Node for Silent {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
    }

    struct Chirper {
        target: NodeId,
    }
    impl Node for Chirper {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.target, "chirp", vec![1, 2, 3]);
            ctx.set_timer(Duration::from_millis(1), 42);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}
    }

    #[test]
    fn trace_records_delivery_and_timer() {
        let mut sim = Simulator::new(1);
        sim.enable_trace(100);
        let sink = sim.add_node(Silent);
        sim.add_node(Chirper { target: sink });
        sim.run_until(Time::from_millis(10));
        let events = sim.trace_events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Delivered { kind: "chirp", len: 3, .. }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::TimerFired { tag: 42, .. })));
        assert!(sim.trace_recorded() >= 2);
    }

    #[test]
    fn trace_records_drop_reasons() {
        let mut sim = Simulator::new(2);
        sim.enable_trace(100);
        let sink = sim.add_node(Silent);
        let chirper = sim.add_node(Chirper { target: sink });
        sim.partition(sink, 7);
        sim.run_until(Time::from_millis(10));
        assert!(sim.trace_events().iter().any(|e| matches!(
            e,
            TraceEvent::Dropped { reason: DropReason::Partitioned, .. }
        )));
        // A crashed receiver at delivery time is recorded too.
        sim.heal_partitions();
        sim.invoke(chirper, |c: &mut Chirper, ctx| {
            let t = c.target;
            ctx.send(t, "chirp", vec![9]);
        });
        sim.crash(sink);
        sim.run_until(Time::from_millis(20));
        assert!(sim.trace_events().iter().any(|e| matches!(
            e,
            TraceEvent::Dropped { reason: DropReason::Crashed, .. }
        )));
    }

    #[test]
    fn tracing_off_costs_nothing_visible() {
        let mut sim = Simulator::new(3);
        let sink = sim.add_node(Silent);
        sim.add_node(Chirper { target: sink });
        sim.run_until(Time::from_millis(10));
        assert!(sim.trace_events().is_empty());
        assert_eq!(sim.trace_recorded(), 0);
    }
}
