//! The one event loop that the untraced and the traced run share.
//!
//! Both runs advance the simulator one `Simulator::step()` at a time
//! and inject a workload's actions in the step in which the [`Ticker`]
//! node's timer fires, so actions land at exact tick instants and the
//! two runs execute the same event sequence. The traced run only adds
//! wall-clock timing around each step and reads the simulator's trace
//! to attribute the step to a (role, kind) pair.

use crate::calib::Calib;
use mykil::group::GroupHandle;
use mykil_net::{Context, Duration, Node, NodeId, TraceEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// Virtual length of one tick, in microseconds.
pub const TICK_US: u64 = 100_000;

/// Wall time between calibration slices: dense enough to follow host
/// speed drift within a run, at about 4% of the run's time.
const SLICE_EVERY: std::time::Duration = std::time::Duration::from_millis(20);

/// Trace ring size: a step records at most a few events, and only the
/// first one of a step is read.
const TRACE_RING: usize = 8;

/// A node whose timer fires once per tick; nothing else.
pub struct Ticker {
    ticks: u64,
}

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_micros(TICK_US), 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        self.ticks += 1;
        ctx.set_timer(Duration::from_micros(TICK_US), 0);
    }
}

/// A workload's actions, injected by the stepper.
pub trait Load {
    /// Injects the actions due at `tick` (ticks count from the start of
    /// the phase the load drives).
    fn on_tick(&mut self, g: &mut GroupHandle, tick: u64);

    /// Observes the group after every event; must not change it.
    fn after_step(&mut self, _g: &GroupHandle) {}
}

/// A load that injects nothing (settling).
pub struct Idle;

impl Load for Idle {
    fn on_tick(&mut self, _g: &mut GroupHandle, _tick: u64) {}
}

/// Who handles an event, by deployment role of the receiving node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    Rs,
    Ac,
    Backup,
    Member,
    Harness,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Rs => "rs",
            Role::Ac => "ac",
            Role::Backup => "backup",
            Role::Member => "member",
            Role::Harness => "harness",
        }
    }
}

/// One timed step: a handler call (or the stepper's action injection).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Nanoseconds since the traced phase began.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub role: Role,
    /// `TraceEvent` kind of the handled message, `timer`, `inject` for
    /// stepper actions, or `other` (starts, restarts, acks,
    /// retransmits, drops at crashed nodes).
    pub kind: &'static str,
    /// Member node at either endpoint (the request the step serves),
    /// or `u32::MAX`.
    pub req: u32,
}

/// In-memory span recorder for the traced run.
pub struct Tracer {
    origin: Instant,
    roles: Vec<Role>,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn role(&self, node: NodeId) -> Role {
        self.roles
            .get(node.index())
            .copied()
            .unwrap_or(Role::Member)
    }

    fn req(&self, nodes: &[NodeId]) -> u32 {
        nodes
            .iter()
            .find(|n| self.role(**n) == Role::Member)
            .map(|n| n.index() as u32)
            .unwrap_or(u32::MAX)
    }

    fn push(&mut self, start: Instant, end: Instant, role: Role, kind: &'static str, req: u32) {
        self.spans.push(Span {
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            role,
            kind,
            req,
        });
    }

    /// Total nanoseconds and span count per (role, kind).
    pub fn totals(&self) -> BTreeMap<(Role, &'static str), (u64, u64)> {
        let mut out: BTreeMap<(Role, &'static str), (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry((s.role, s.kind)).or_default();
            e.0 += s.dur_ns;
            e.1 += 1;
        }
        out
    }
}

/// Drives a group tick by tick.
pub struct Stepper {
    ticker: NodeId,
    tick: u64,
    /// Interleaved calibration kernel (a slice every [`SLICE_EVERY`] of
    /// wall time while on).
    pub calib: Calib,
    pub calibrating: bool,
    last_slice: Instant,
    pub tracer: Option<Tracer>,
}

impl Stepper {
    /// Adds the ticker node to the group.
    pub fn new(g: &mut GroupHandle, calib: Calib) -> Stepper {
        let ticker = g.sim.add_node(Ticker { ticks: 0 });
        Stepper {
            ticker,
            tick: 0,
            calib,
            calibrating: false,
            last_slice: Instant::now(),
            tracer: None,
        }
    }

    /// Ticks fired since the stepper was created.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Turns on step tracing from here on.
    pub fn start_trace(&mut self, g: &mut GroupHandle) {
        g.sim.enable_trace(TRACE_RING);
        let last = g
            .primaries
            .iter()
            .chain(&g.backups)
            .chain(&g.members)
            .chain([&g.rs(), &self.ticker])
            .map(|n| n.index())
            .max()
            .unwrap_or(0);
        let mut roles = vec![Role::Member; last + 1];
        roles[g.rs().index()] = Role::Rs;
        for p in &g.primaries {
            roles[p.index()] = Role::Ac;
        }
        for b in &g.backups {
            roles[b.index()] = Role::Backup;
        }
        roles[self.ticker.index()] = Role::Harness;
        self.tracer = Some(Tracer {
            origin: Instant::now(),
            roles,
            spans: Vec::with_capacity(1 << 18),
        });
    }

    /// Runs until `n` more ticks have fired; `load` sees tick numbers
    /// relative to `base`.
    pub fn run_ticks(&mut self, g: &mut GroupHandle, load: &mut dyn Load, n: u64, base: u64) {
        let end = self.tick + n;
        while self.tick < end {
            match self.tracer.as_mut() {
                None => {
                    g.sim.step();
                }
                Some(tr) => traced_step(g, tr),
            }
            load.after_step(g);
            if self.calibrating && self.last_slice.elapsed() >= SLICE_EVERY {
                self.calib.slice();
                self.last_slice = Instant::now();
            }
            let fired = g.sim.node::<Ticker>(self.ticker).ticks;
            if fired != self.tick {
                self.tick = fired;
                let rel = fired - base;
                match self.tracer.as_mut() {
                    None => load.on_tick(g, rel),
                    Some(tr) => {
                        let t0 = Instant::now();
                        load.on_tick(g, rel);
                        tr.push(t0, Instant::now(), Role::Harness, "inject", u32::MAX);
                    }
                }
            }
        }
    }
}

/// One step, timed and attributed to the first trace event it records.
fn traced_step(g: &mut GroupHandle, tr: &mut Tracer) {
    let before = g.sim.trace_recorded();
    let t0 = Instant::now();
    g.sim.step();
    let t1 = Instant::now();
    let new = (g.sim.trace_recorded() - before) as usize;
    let (role, kind, req) = if new == 0 {
        (Role::Harness, "other", u32::MAX)
    } else {
        let events = g.sim.trace_events();
        match events.len().checked_sub(new).and_then(|i| events.get(i)) {
            Some(TraceEvent::Delivered { from, to, kind, .. }) => {
                (tr.role(*to), *kind, tr.req(&[*to, *from]))
            }
            Some(TraceEvent::TimerFired { node, .. }) => {
                (tr.role(*node), "timer", tr.req(&[*node]))
            }
            _ => (Role::Harness, "other", u32::MAX),
        }
    };
    tr.push(t0, t1, role, kind, req);
}
