//! Chaos harness: seeded, replayable fault schedules for the simulator.
//!
//! The ROADMAP's fault-tolerance north star asks for "as many scenarios
//! as you can imagine"; this module is the machine that imagines them.
//! A [`FaultPlan`] is an ordered schedule of [`FaultSpec`]s — crashes,
//! restarts, partitions and heals, link cuts, loss/duplication/reorder
//! knobs, per-node timer skew, and storage faults (lying fsync with a
//! lost or torn tail, checkpoint corruption — see
//! [`StableStore`](crate::StableStore)). Plans are either hand-written (for
//! regression tests) or generated from a seed ([`FaultPlan::random`]),
//! and a [`ChaosDriver`] injects them into a [`Simulator`] at the
//! scheduled virtual times, recording each injection into the trace as
//! [`TraceEvent::FaultInjected`](crate::TraceEvent).
//!
//! Every plan serializes to a line-oriented text form
//! ([`FaultPlan::serialize`] / [`FaultPlan::parse`]); a soak test that
//! trips an invariant dumps this text so the failing schedule replays
//! as a deterministic regression test.
//!
//! Randomly generated plans are *bounded*: every crash is paired with a
//! restart, every partition/cut/knob with its heal/restore/reset, and a
//! final cleanup batch re-heals the world before the horizon — so a
//! protocol that tolerates the faults at all has a quiescent window at
//! the end of the plan in which global invariants must hold.

use crate::id::NodeId;
use crate::sim::Simulator;
use crate::storage::StoreFault;
use crate::time::{Duration, Time};
use mykil_crypto::drbg::Drbg;
use std::fmt;

/// One injectable fault (or fault-clearing action).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Crash a node (volatile state, timers and pending reliables die;
    /// only stable storage survives).
    Crash(NodeId),
    /// Restart a crashed node (no-op on a live node).
    Restart(NodeId),
    /// Move a node into partition `label` (0 = rejoin the default
    /// partition, i.e. heal this node).
    Partition(NodeId, u32),
    /// Heal all partitions.
    HealPartitions,
    /// Cut the directed link `from -> to`.
    CutLink(NodeId, NodeId),
    /// Restore the directed link `from -> to`.
    RestoreLink(NodeId, NodeId),
    /// Set uniform message loss (permille; 0 clears).
    Loss(u32),
    /// Set message duplication probability (permille; 0 clears).
    Duplication(u32),
    /// Set reorder probability (permille) and extra-delay window
    /// (`0 0` clears).
    Reorder(u32, Duration),
    /// Scale a node's timers to permille/1000 of nominal (1000 resets).
    TimerSkew(NodeId, u32),
    /// Arm a lying fsync on the node's storage: syncs report success
    /// but persist nothing until the next crash discards the tail.
    StorageLostTail(NodeId),
    /// Like [`FaultSpec::StorageLostTail`], but the crash leaves the
    /// first unsynced record torn (checksum-invalid) in the log.
    StorageTorn(NodeId),
    /// Corrupt the node's newest valid checkpoint slot (bit-rot),
    /// effective immediately.
    CorruptCheckpoint(NodeId),
    /// Reads of the node's WAL come back short until healed: recovery
    /// sees the final record truncated (needs a fault-injecting
    /// backend, e.g. [`FaultyStore`](crate::FaultyStore)).
    StorageShortRead(NodeId),
    /// The node's WAL appends are silently dropped until healed (needs
    /// a fault-injecting backend).
    StorageAppendFail(NodeId),
    /// Corrupt a specific checkpoint slot (0 or 1) of the node,
    /// regardless of which is newest.
    CorruptSlot(NodeId, u8),
    /// Disarm any storage fault on the node and honestly flush its
    /// device cache.
    StorageHeal(NodeId),
}

impl FaultSpec {
    /// Applies this fault to the simulator.
    pub fn apply(&self, sim: &mut Simulator) {
        match *self {
            FaultSpec::Crash(n) => sim.crash(n),
            FaultSpec::Restart(n) => {
                sim.restart(n);
            }
            FaultSpec::Partition(n, label) => sim.partition(n, label),
            FaultSpec::HealPartitions => sim.heal_partitions(),
            FaultSpec::CutLink(a, b) => sim.cut_link(a, b),
            FaultSpec::RestoreLink(a, b) => sim.restore_link(a, b),
            FaultSpec::Loss(pm) => sim.set_loss_per_mille(pm),
            FaultSpec::Duplication(pm) => sim.set_duplication_per_mille(pm),
            FaultSpec::Reorder(pm, window) => sim.set_reorder(pm, window),
            FaultSpec::TimerSkew(n, pm) => sim.set_timer_skew_per_mille(n, pm),
            FaultSpec::StorageLostTail(n) => sim.inject_storage_fault(n, StoreFault::LostTail),
            FaultSpec::StorageTorn(n) => sim.inject_storage_fault(n, StoreFault::TornWrite),
            FaultSpec::CorruptCheckpoint(n) => {
                sim.inject_storage_fault(n, StoreFault::CorruptCheckpoint)
            }
            FaultSpec::StorageShortRead(n) => sim.inject_storage_fault(n, StoreFault::ShortRead),
            FaultSpec::StorageAppendFail(n) => sim.inject_storage_fault(n, StoreFault::AppendFail),
            FaultSpec::CorruptSlot(n, slot) => {
                sim.inject_storage_fault(n, StoreFault::CorruptSlot(slot))
            }
            FaultSpec::StorageHeal(n) => sim.storage_mut(n).heal(),
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultSpec::Crash(n) => write!(f, "crash {}", n.index()),
            FaultSpec::Restart(n) => write!(f, "restart {}", n.index()),
            FaultSpec::Partition(n, label) => write!(f, "partition {} {}", n.index(), label),
            FaultSpec::HealPartitions => write!(f, "heal"),
            FaultSpec::CutLink(a, b) => write!(f, "cut {} {}", a.index(), b.index()),
            FaultSpec::RestoreLink(a, b) => write!(f, "restore {} {}", a.index(), b.index()),
            FaultSpec::Loss(pm) => write!(f, "loss {pm}"),
            FaultSpec::Duplication(pm) => write!(f, "dup {pm}"),
            FaultSpec::Reorder(pm, w) => write!(f, "reorder {pm} {}", w.as_micros()),
            FaultSpec::TimerSkew(n, pm) => write!(f, "skew {} {pm}", n.index()),
            FaultSpec::StorageLostTail(n) => write!(f, "lost-tail {}", n.index()),
            FaultSpec::StorageTorn(n) => write!(f, "torn {}", n.index()),
            FaultSpec::CorruptCheckpoint(n) => write!(f, "ckpt-corrupt {}", n.index()),
            FaultSpec::StorageShortRead(n) => write!(f, "wal-short-read {}", n.index()),
            FaultSpec::StorageAppendFail(n) => write!(f, "wal-append-fail {}", n.index()),
            FaultSpec::CorruptSlot(n, slot) => {
                write!(f, "ckpt-slot-corrupt {} {slot}", n.index())
            }
            FaultSpec::StorageHeal(n) => write!(f, "storage-heal {}", n.index()),
        }
    }
}

/// A fault bound to its injection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedFault {
    /// Virtual time of injection.
    pub at: Time,
    /// What to inject.
    pub fault: FaultSpec,
}

/// Parameters for [`FaultPlan::random`].
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Nodes eligible for targeted faults (crash, partition, cut, skew).
    /// Typically the protocol nodes minus any the scenario must keep
    /// alive.
    pub targets: Vec<NodeId>,
    /// All faults are injected and cleared within this window; the tail
    /// tenth of the horizon is fault-free so the system can quiesce.
    pub horizon: Duration,
    /// Number of fault episodes (each contributes an inject + a clear).
    pub episodes: usize,
    /// Upper bound for generated loss/duplication/reorder probabilities
    /// (permille).
    pub max_knob_per_mille: u32,
    /// Include storage-fault episodes (lying fsync with a lost or torn
    /// tail, checkpoint corruption), each paired with a crash/restart so
    /// the fault actually bites. The cleanup batch heals every target's
    /// storage.
    pub storage_faults: bool,
}

/// An ordered, replayable schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<TimedFault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends a fault; the plan is kept sorted by time (stable, so
    /// same-time faults apply in insertion order).
    ///
    /// Inserts at the position found by binary search instead of
    /// re-sorting the whole vector on every push — the old
    /// `sort_by_key` made building an n-fault plan O(n² log n).
    /// `partition_point(at <= )` lands *after* any equal-time faults,
    /// which is exactly where a stable sort would have kept a new
    /// arrival, so generated plans are byte-identical to before.
    pub fn push(&mut self, at: Time, fault: FaultSpec) {
        let pos = self.faults.partition_point(|f| f.at <= at);
        self.faults.insert(pos, TimedFault { at, fault });
    }

    /// The scheduled faults, in injection order.
    pub fn faults(&self) -> &[TimedFault] {
        &self.faults
    }

    /// Generates a bounded random plan from a seed: each episode picks a
    /// fault family, an onset and a duration, and schedules both the
    /// injection and the matching clear; a cleanup batch at 90% of the
    /// horizon restores full connectivity regardless.
    pub fn random(seed: u64, opts: &ChaosOptions) -> FaultPlan {
        let mut rng = Drbg::from_seed(seed ^ 0xc4a0_5bad_f00d_0001);
        let mut plan = FaultPlan::new();
        let horizon_us = opts.horizon.as_micros().max(1000);
        let cleanup_us = horizon_us * 9 / 10;
        let pick = |rng: &mut Drbg, nodes: &[NodeId]| {
            let i = rng.gen_range(nodes.len() as u64) as usize;
            nodes.get(i).copied().unwrap_or(NodeId::from_index(0))
        };
        // Random knob values are tiny by construction (`gen_range`
        // bound), but the narrowing still goes through `try_from` so
        // lint L009 holds across the whole file.
        let knob = |rng: &mut Drbg, bound: u64| -> u32 {
            u32::try_from(rng.gen_range(bound.max(1))).unwrap_or(u32::MAX)
        };
        for _ in 0..opts.episodes {
            if opts.targets.is_empty() {
                break;
            }
            // Onset in the first 60% of the horizon, duration up to 25%,
            // clamped to finish before the cleanup batch.
            let start = rng.gen_range(horizon_us * 6 / 10).max(1);
            let dur = (rng.gen_range(horizon_us / 4) + 1).min(cleanup_us - start.min(cleanup_us));
            let end = (start + dur).min(cleanup_us.saturating_sub(1)).max(start + 1);
            let (t0, t1) = (Time::from_micros(start), Time::from_micros(end));
            let families = if opts.storage_faults { 10 } else { 7 };
            match rng.gen_range(families) {
                0 => {
                    let n = pick(&mut rng, &opts.targets);
                    plan.push(t0, FaultSpec::Crash(n));
                    plan.push(t1, FaultSpec::Restart(n));
                }
                1 => {
                    let n = pick(&mut rng, &opts.targets);
                    let label = 1 + knob(&mut rng, 3);
                    plan.push(t0, FaultSpec::Partition(n, label));
                    plan.push(t1, FaultSpec::Partition(n, 0));
                }
                2 => {
                    let a = pick(&mut rng, &opts.targets);
                    let b = pick(&mut rng, &opts.targets);
                    if a != b {
                        plan.push(t0, FaultSpec::CutLink(a, b));
                        plan.push(t1, FaultSpec::RestoreLink(a, b));
                    }
                }
                3 => {
                    let pm = 1 + knob(&mut rng, u64::from(opts.max_knob_per_mille));
                    plan.push(t0, FaultSpec::Loss(pm));
                    plan.push(t1, FaultSpec::Loss(0));
                }
                4 => {
                    let pm = 1 + knob(&mut rng, u64::from(opts.max_knob_per_mille));
                    plan.push(t0, FaultSpec::Duplication(pm));
                    plan.push(t1, FaultSpec::Duplication(0));
                }
                5 => {
                    let pm = 1 + knob(&mut rng, u64::from(opts.max_knob_per_mille));
                    let window = Duration::from_micros(1000 + rng.gen_range(horizon_us / 100));
                    plan.push(t0, FaultSpec::Reorder(pm, window));
                    plan.push(t1, FaultSpec::Reorder(0, Duration::ZERO));
                }
                6 => {
                    let n = pick(&mut rng, &opts.targets);
                    // 500..2000 permille: clock half-speed to double-speed.
                    let pm = 500 + knob(&mut rng, 1500);
                    plan.push(t0, FaultSpec::TimerSkew(n, pm));
                    plan.push(t1, FaultSpec::TimerSkew(n, 1000));
                }
                // Storage episodes pair the fault with a crash (so the
                // lying sync actually loses data) and a restart (so
                // recovery runs against the damaged log). The lying
                // sync arms at t0 and the crash lands at t1: every
                // sync the node issues inside the window parks in the
                // device cache instead of reaching the platter, and is
                // genuinely lost (or torn) at the crash. Arming at the
                // crash instant would give a zero-length window in
                // which nothing was ever lied about.
                7 => {
                    let n = pick(&mut rng, &opts.targets);
                    plan.push(t0, FaultSpec::StorageLostTail(n));
                    plan.push(t1, FaultSpec::Crash(n));
                    plan.push(t1, FaultSpec::Restart(n));
                }
                8 => {
                    let n = pick(&mut rng, &opts.targets);
                    plan.push(t0, FaultSpec::StorageTorn(n));
                    plan.push(t1, FaultSpec::Crash(n));
                    plan.push(t1, FaultSpec::Restart(n));
                }
                // Checkpoint corruption is immediate damage, not a
                // lying sync, so same-time corrupt+crash is fine.
                _ => {
                    let n = pick(&mut rng, &opts.targets);
                    plan.push(t0, FaultSpec::CorruptCheckpoint(n));
                    plan.push(t0, FaultSpec::Crash(n));
                    plan.push(t1, FaultSpec::Restart(n));
                }
            }
        }
        // Cleanup batch: restore the world whatever the episodes did.
        let t = Time::from_micros(cleanup_us);
        plan.push(t, FaultSpec::HealPartitions);
        plan.push(t, FaultSpec::Loss(0));
        plan.push(t, FaultSpec::Duplication(0));
        plan.push(t, FaultSpec::Reorder(0, Duration::ZERO));
        for &n in &opts.targets {
            if opts.storage_faults {
                plan.push(t, FaultSpec::StorageHeal(n));
            }
            plan.push(t, FaultSpec::Restart(n));
            plan.push(t, FaultSpec::TimerSkew(n, 1000));
        }
        plan
    }

    /// Serializes the plan to its line-oriented text form
    /// (`<at_us> <fault>`), suitable for dumping on failure and feeding
    /// back through [`FaultPlan::parse`].
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for f in &self.faults {
            out.push_str(&format!("{} {}\n", f.at.as_micros(), f.fault));
        }
        out
    }

    /// Parses the text form produced by [`FaultPlan::serialize`].
    /// Empty lines and `#` comments are ignored.
    ///
    /// Errors carry the 1-based line number *and* the offending line
    /// text, so a failed replay of a dumped schedule points straight at
    /// the bad fault line instead of making the operator diff the dump
    /// against the verb table by hand.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let err = |what: &str| format!("line {}: {what} in `{line}`", lineno + 1);
            let at = words
                .next()
                .ok_or_else(|| err("missing time"))?
                .parse::<u64>()
                .map_err(|_| err("bad time"))?;
            let verb = words.next().ok_or_else(|| err("missing fault verb"))?;
            let mut num = |what: &str| -> Result<u64, String> {
                words
                    .next()
                    .ok_or_else(|| format!("line {}: missing {what} in `{line}`", lineno + 1))?
                    .parse::<u64>()
                    .map_err(|_| format!("line {}: bad {what} in `{line}`", lineno + 1))
            };
            // Node ids, partition labels and per-mille rates are all
            // u32 in the specs: a larger value in the text form is
            // hostile input (`NodeId::from_index` and a bare `as u32`
            // would both silently truncate it onto a real value), so
            // each narrows with a line-numbered range error instead.
            let narrow = |v: u64, what: &str| -> Result<u32, String> {
                u32::try_from(v)
                    .map_err(|_| format!("line {}: {what} out of range in `{line}`", lineno + 1))
            };
            let node = |v: u64, what: &str| -> Result<NodeId, String> {
                narrow(v, what).map(|x| NodeId::from_index(x as usize))
            };
            let fault = match verb {
                "crash" => FaultSpec::Crash(node(num("node")?, "node")?),
                "restart" => FaultSpec::Restart(node(num("node")?, "node")?),
                "partition" => FaultSpec::Partition(
                    node(num("node")?, "node")?,
                    narrow(num("label")?, "label")?,
                ),
                "heal" => FaultSpec::HealPartitions,
                "cut" => FaultSpec::CutLink(
                    node(num("from")?, "from")?,
                    node(num("to")?, "to")?,
                ),
                "restore" => FaultSpec::RestoreLink(
                    node(num("from")?, "from")?,
                    node(num("to")?, "to")?,
                ),
                "loss" => FaultSpec::Loss(narrow(num("per-mille")?, "per-mille")?),
                "dup" => FaultSpec::Duplication(narrow(num("per-mille")?, "per-mille")?),
                "reorder" => FaultSpec::Reorder(
                    narrow(num("per-mille")?, "per-mille")?,
                    Duration::from_micros(num("window")?),
                ),
                "skew" => FaultSpec::TimerSkew(
                    node(num("node")?, "node")?,
                    narrow(num("per-mille")?, "per-mille")?,
                ),
                "lost-tail" => FaultSpec::StorageLostTail(node(num("node")?, "node")?),
                "torn" => FaultSpec::StorageTorn(node(num("node")?, "node")?),
                "ckpt-corrupt" => FaultSpec::CorruptCheckpoint(node(num("node")?, "node")?),
                "wal-short-read" => FaultSpec::StorageShortRead(node(num("node")?, "node")?),
                "wal-append-fail" => FaultSpec::StorageAppendFail(node(num("node")?, "node")?),
                "ckpt-slot-corrupt" => {
                    let n = node(num("node")?, "node")?;
                    let slot = match u8::try_from(num("slot")?) {
                        Ok(s) if s <= 1 => s,
                        _ => return Err(err("bad slot (must be 0 or 1)")),
                    };
                    FaultSpec::CorruptSlot(n, slot)
                }
                "storage-heal" => FaultSpec::StorageHeal(node(num("node")?, "node")?),
                other => return Err(err(&format!("unknown fault verb `{other}`"))),
            };
            plan.push(Time::from_micros(at), fault);
        }
        Ok(plan)
    }
}

/// Steps a simulator through a [`FaultPlan`], injecting each fault at
/// its scheduled time and recording it into the trace.
#[derive(Debug)]
pub struct ChaosDriver {
    plan: FaultPlan,
    next: usize,
}

impl ChaosDriver {
    /// Creates a driver over `plan`.
    pub fn new(plan: FaultPlan) -> ChaosDriver {
        ChaosDriver { plan, next: 0 }
    }

    /// The plan being driven (e.g. to dump on failure).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether every scheduled fault has been injected.
    pub fn finished(&self) -> bool {
        self.next >= self.plan.faults.len()
    }

    /// Runs the simulator to `deadline`, injecting every plan fault
    /// whose time falls within the span. Faults scheduled at exactly
    /// `deadline` are injected (the span is inclusive), so splitting a
    /// run into back-to-back `run_until` windows injects every fault
    /// exactly once regardless of where the window boundaries land.
    pub fn run_until(&mut self, sim: &mut Simulator, deadline: Time) {
        self.run_until_observed(sim, deadline, |_, _| {});
    }

    /// Like [`Self::run_until`], but calls `observe` immediately after
    /// each fault is applied (the simulator is at the fault's virtual
    /// time, the fault has taken effect, and no later event has run).
    /// Harnesses use this to snapshot ledgers at crash instants — e.g.
    /// the scale storm records byte counters per AC crash so the
    /// degraded window can be measured without replaying the run.
    pub fn run_until_observed(
        &mut self,
        sim: &mut Simulator,
        deadline: Time,
        mut observe: impl FnMut(&mut Simulator, &TimedFault),
    ) {
        while let Some(tf) = self.plan.faults.get(self.next) {
            if tf.at > deadline {
                break;
            }
            let tf = tf.clone();
            self.next += 1;
            sim.run_until(tf.at);
            sim.record_fault(tf.fault.to_string());
            tf.fault.apply(sim);
            observe(sim, &tf);
        }
        sim.run_until(deadline);
    }

    /// Convenience: runs for a span of virtual time (see
    /// [`Self::run_until`]).
    pub fn run_for(&mut self, sim: &mut Simulator, d: Duration) {
        let deadline = sim.now() + d;
        self.run_until(sim, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::sim::Node;
    use crate::trace::TraceEvent;

    #[test]
    fn serialize_parse_round_trip() {
        let mut plan = FaultPlan::new();
        let n = |i| NodeId::from_index(i);
        plan.push(Time::from_millis(5), FaultSpec::Crash(n(2)));
        plan.push(Time::from_millis(9), FaultSpec::Restart(n(2)));
        plan.push(Time::from_millis(1), FaultSpec::Partition(n(3), 7));
        plan.push(Time::from_millis(2), FaultSpec::HealPartitions);
        plan.push(Time::from_millis(3), FaultSpec::CutLink(n(0), n(1)));
        plan.push(Time::from_millis(4), FaultSpec::RestoreLink(n(0), n(1)));
        plan.push(Time::from_millis(6), FaultSpec::Loss(150));
        plan.push(Time::from_millis(7), FaultSpec::Duplication(80));
        plan.push(
            Time::from_millis(8),
            FaultSpec::Reorder(200, Duration::from_micros(1500)),
        );
        plan.push(Time::from_millis(10), FaultSpec::TimerSkew(n(4), 1500));
        plan.push(Time::from_millis(11), FaultSpec::StorageLostTail(n(2)));
        plan.push(Time::from_millis(12), FaultSpec::StorageTorn(n(3)));
        plan.push(Time::from_millis(13), FaultSpec::CorruptCheckpoint(n(2)));
        plan.push(Time::from_millis(14), FaultSpec::StorageHeal(n(2)));
        let text = plan.serialize();
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(plan, back);
        // Idempotent through a second round trip.
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("abc crash 1").is_err());
        assert!(FaultPlan::parse("100 explode 1").is_err());
        assert!(FaultPlan::parse("100 crash").is_err());
        assert!(FaultPlan::parse("100 partition 1 x").is_err());
        // Comments and blanks are fine.
        let ok = FaultPlan::parse("# a comment\n\n100 heal\n");
        assert_eq!(ok.unwrap().faults().len(), 1);
    }

    /// Satellite fix (ISSUE 8): parse errors must point at the bad
    /// fault line — 1-based line number plus the offending text — so a
    /// dumped-schedule replay failure is debuggable from the message
    /// alone.
    #[test]
    fn parse_errors_carry_line_number_and_offending_text() {
        let text = "0 heal\n100 explode 1\n200 heal\n";
        let err = FaultPlan::parse(text).unwrap_err();
        assert!(err.contains("line 2"), "no line number in: {err}");
        assert!(err.contains("`100 explode 1`"), "no offending text in: {err}");

        // Comment/blank lines still count toward the line number.
        let text = "# header\n\n300 partition 5 x\n";
        let err = FaultPlan::parse(text).unwrap_err();
        assert!(err.contains("line 3"), "no line number in: {err}");
        assert!(err.contains("`300 partition 5 x`"), "no offending text in: {err}");

        let err = FaultPlan::parse("oops crash 1").unwrap_err();
        assert!(err.contains("line 1") && err.contains("bad time"), "bad: {err}");
        assert!(err.contains("`oops crash 1`"), "no offending text in: {err}");
    }

    #[test]
    fn random_plans_are_seeded_and_bounded() {
        let opts = ChaosOptions {
            targets: (1..6).map(NodeId::from_index).collect(),
            horizon: Duration::from_secs(10),
            episodes: 12,
            max_knob_per_mille: 300,
            storage_faults: false,
        };
        let a = FaultPlan::random(42, &opts);
        let b = FaultPlan::random(42, &opts);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::random(43, &opts);
        assert_ne!(a, c, "different seed, different plan");
        // Bounded: the cleanup batch restores everything at 90%.
        let cleanup = Time::from_micros(Duration::from_secs(10).as_micros() * 9 / 10);
        assert!(a.faults().iter().all(|f| f.at <= cleanup));
        assert!(a
            .faults()
            .iter()
            .any(|f| f.fault == FaultSpec::HealPartitions && f.at == cleanup));
        for target in &opts.targets {
            assert!(a
                .faults()
                .iter()
                .any(|f| f.fault == FaultSpec::Restart(*target) && f.at == cleanup));
        }
    }

    /// Satellite fix (ISSUE 7): `push` used to re-sort the whole vector
    /// on every call. The sorted-position insert must (a) keep large
    /// plan construction cheap and (b) order faults exactly as the old
    /// stable sort did, so serialized plans — and therefore replays —
    /// stay byte-identical.
    #[test]
    fn large_plan_builds_fast_and_matches_stable_sort_order() {
        let mut rng = Drbg::from_seed(0x10ad_91a4);
        let n = |i: u64| NodeId::from_index((i % 64) as usize);
        let faults: Vec<(Time, FaultSpec)> = (0..10_000u64)
            .map(|_| {
                let at = Time::from_micros(rng.gen_range(1_000_000));
                let fault = match rng.gen_range(4) {
                    0 => FaultSpec::Crash(n(rng.gen_range(64))),
                    1 => FaultSpec::Restart(n(rng.gen_range(64))),
                    2 => FaultSpec::Loss(rng.gen_range(300) as u32),
                    _ => FaultSpec::HealPartitions,
                };
                (at, fault)
            })
            .collect();

        // mykil-lint: allow(L004) -- wall-clock bound on test *build* time, not simulated time
        let start = std::time::Instant::now();
        let mut plan = FaultPlan::new();
        for (at, fault) in &faults {
            plan.push(*at, fault.clone());
        }
        // Generous even for a slow debug CI runner; the old
        // sort-per-push implementation took tens of seconds here.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "10k-fault plan took {:?} to build",
            start.elapsed()
        );

        // Reference: what the old implementation produced — append
        // everything, then one stable sort by time.
        let mut reference: Vec<TimedFault> = faults
            .iter()
            .map(|(at, fault)| TimedFault {
                at: *at,
                fault: fault.clone(),
            })
            .collect();
        reference.sort_by_key(|f| f.at);
        assert_eq!(plan.faults(), &reference[..]);

        // And the replay text form round-trips unchanged.
        assert_eq!(FaultPlan::parse(&plan.serialize()).unwrap(), plan);
    }

    #[test]
    fn storage_fault_plans_pair_crashes_and_heal_in_cleanup() {
        let opts = ChaosOptions {
            targets: (1..4).map(NodeId::from_index).collect(),
            horizon: Duration::from_secs(10),
            episodes: 30,
            max_knob_per_mille: 100,
            storage_faults: true,
        };
        let plan = FaultPlan::random(11, &opts);
        // Round-trips through the text form.
        assert_eq!(FaultPlan::parse(&plan.serialize()).unwrap(), plan);
        // Every storage arm is followed by a crash of the same node at
        // or after the arm time — lying syncs need a real window of
        // virtual time before the crash so that syncs issued inside it
        // actually park and get lost; checkpoint corruption is
        // immediate and may share the crash instant.
        let faults = plan.faults();
        let mut lying_windows = 0u32;
        let mut saw_storage_episode = false;
        for (i, tf) in faults.iter().enumerate() {
            let (armed, lying) = match tf.fault {
                FaultSpec::StorageLostTail(n) | FaultSpec::StorageTorn(n) => (Some(n), true),
                FaultSpec::CorruptCheckpoint(n) => (Some(n), false),
                _ => (None, false),
            };
            if let Some(n) = armed {
                if tf.at == Time::from_micros(Duration::from_secs(10).as_micros() * 9 / 10) {
                    continue; // (not generated, but be robust)
                }
                saw_storage_episode = true;
                let crash = faults
                    .iter()
                    .skip(i + 1)
                    .find(|f| f.fault == FaultSpec::Crash(n));
                let crash = crash.unwrap_or_else(|| {
                    panic!("storage fault on {n:?} at {:?} has no later crash", tf.at)
                });
                assert!(crash.at >= tf.at);
                if lying {
                    assert!(
                        crash.at > tf.at,
                        "lying sync armed at the crash instant: zero-length window"
                    );
                    lying_windows += 1;
                }
            }
        }
        assert!(saw_storage_episode, "30 episodes produced no storage fault");
        assert!(lying_windows > 0, "30 episodes produced no lying-sync window");
        // Cleanup heals every target's storage.
        let cleanup = Time::from_micros(Duration::from_secs(10).as_micros() * 9 / 10);
        for target in &opts.targets {
            assert!(faults
                .iter()
                .any(|f| f.fault == FaultSpec::StorageHeal(*target) && f.at == cleanup));
        }
    }

    /// Two nodes ping each other once a millisecond.
    struct Chatter {
        peer: NodeId,
        got: u32,
    }

    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_millis(1), 0);
        }
        fn on_restarted(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_millis(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {
            self.got += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            ctx.send(self.peer, "chat", vec![1]);
            ctx.set_timer(Duration::from_millis(1), 0);
        }
    }

    #[test]
    fn driver_injects_at_scheduled_times_and_traces() {
        let mut sim = Simulator::new(9);
        sim.enable_trace(10_000);
        let a = sim.add_node(Chatter {
            peer: NodeId::from_index(1),
            got: 0,
        });
        let b = sim.add_node(Chatter { peer: a, got: 0 });
        let mut plan = FaultPlan::new();
        plan.push(Time::from_millis(10), FaultSpec::Crash(b));
        plan.push(Time::from_millis(20), FaultSpec::Restart(b));
        let mut driver = ChaosDriver::new(plan);
        driver.run_until(&mut sim, Time::from_millis(40));
        assert!(driver.finished());
        let faults: Vec<String> = sim
            .trace_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::FaultInjected { at, desc } => {
                    Some(format!("{} {}", at.as_micros(), desc))
                }
                _ => None,
            })
            .collect();
        assert_eq!(faults, vec!["10000 crash 1", "20000 restart 1"]);
        // b kept chatting after its restart (on_restarted re-armed the
        // timer), so a heard from it again in the final 20ms.
        assert!(sim.node::<Chatter>(a).got > 20);
    }

    #[test]
    fn random_plan_replays_identically_after_round_trip() {
        let opts = ChaosOptions {
            targets: vec![NodeId::from_index(0), NodeId::from_index(1)],
            horizon: Duration::from_secs(2),
            episodes: 8,
            max_knob_per_mille: 200,
            storage_faults: true,
        };
        let plan = FaultPlan::random(7, &opts);
        let replayed = FaultPlan::parse(&plan.serialize()).unwrap();
        let run = |plan: FaultPlan| {
            let mut sim = Simulator::new(5);
            let a = sim.add_node(Chatter {
                peer: NodeId::from_index(1),
                got: 0,
            });
            let b = sim.add_node(Chatter { peer: a, got: 0 });
            let mut driver = ChaosDriver::new(plan);
            driver.run_until(&mut sim, Time::from_secs(2));
            (
                sim.node::<Chatter>(a).got,
                sim.node::<Chatter>(b).got,
                sim.events_processed(),
            )
        };
        assert_eq!(run(plan), run(replayed));
    }
}
