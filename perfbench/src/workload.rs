//! The three workloads: set-up, per-tick actions and outcome checks.
//!
//! Every workload drives the real protocol through `GroupBuilder` and
//! `GroupHandle`: real RSA, envelopes, `RegistrationServer`,
//! `AreaController` and `Member`. All choices come from the seed, and
//! run length comes from the `--seconds` budget as a whole number of
//! virtual ticks, so a (workload, seed, seconds) triple always runs the
//! same event sequence.

use crate::calib::{Calib, Mark};
use crate::stepper::{Idle, Load, Stepper};
use mykil::area::{AreaController, Role as AcRole};
use mykil::config::MykilConfig;
use mykil::crypto_cost::CryptoCost;
use mykil::group::{GroupBuilder, GroupHandle};
use mykil::identity::{AreaId, ClientId, DeviceId};
use mykil::invariants::{InvariantChecker, InvariantViolation};
use mykil::member::Member;
use mykil_crypto::drbg::Drbg;
use mykil_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use mykil_net::{NodeId, StorageFactory, Time};
use mykil_tree::TreeBackend;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// Member RSA keypairs generated per set-up, reused cyclically. The
/// registration server and controllers store a member's public key per
/// client and never compare or index by it, so sharing is invisible to
/// the protocol.
const KEY_POOL: usize = 24;
/// Virtual ticks after the last injection in which in-flight operations
/// finish inside the timed phase.
const DRAIN_TICKS: u64 = 20;
/// Virtual ticks of quiet before the final outcome check.
const SETTLE_TICKS: u64 = 50;
/// Ticks after a rejoin starts at which it must be complete.
const REJOIN_DEADLINE: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    JoinStorm,
    RekeyFanout,
    Failover,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "join_storm" => Some(Kind::JoinStorm),
            "rekey_fanout" => Some(Kind::RekeyFanout),
            "failover" => Some(Kind::Failover),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::JoinStorm => "join_storm",
            Kind::RekeyFanout => "rekey_fanout",
            Kind::Failover => "failover",
        }
    }

    fn areas(self) -> usize {
        match self {
            Kind::JoinStorm | Kind::Failover => 4,
            Kind::RekeyFanout => 2,
        }
    }

    fn replicated(self) -> bool {
        self == Kind::Failover
    }

    fn backend(self) -> TreeBackend {
        match self {
            Kind::Failover => TreeBackend::Khf,
            _ => TreeBackend::Explicit,
        }
    }

    /// Members joined during set-up.
    fn standing(self) -> usize {
        match self {
            Kind::JoinStorm => 0,
            Kind::RekeyFanout | Kind::Failover => 400,
        }
    }

    /// Injection ticks per second of `--seconds` budget, sized so the
    /// timed phase takes about that long on the reference host.
    fn ticks_per_budget_s(self) -> f64 {
        match self {
            Kind::JoinStorm => 5.0,
            Kind::RekeyFanout => 15.0,
            Kind::Failover => 35.0,
        }
    }

    /// Injection ticks for a `--seconds` budget.
    pub fn inject_ticks(self, seconds: u64) -> u64 {
        ((seconds as f64 * self.ticks_per_budget_s()).round() as u64).max(10)
    }

    /// One-line shape, printed with the results.
    pub fn shape(self) -> String {
        format!(
            "areas={} replicated={} backend={:?} standing={}",
            self.areas(),
            self.replicated(),
            self.backend(),
            self.standing()
        )
    }
}

/// A small deterministic generator for the harness's own choices
/// (SplitMix64), independent of the simulator's RNG stream.
pub struct Choice(u64);

impl Choice {
    pub fn new(seed: u64) -> Choice {
        Choice(seed ^ 0x5EED_B0A7_D1CE_0001)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// What a member needs that `GroupHandle` keeps private, plus the pool.
pub struct Pool {
    keys: Vec<RsaKeyPair>,
    cfg: MykilConfig,
    cost: CryptoCost,
    rs_pub: RsaPublicKey,
    next: u64,
}

impl Pool {
    /// Adds an auto-joining member built from the next pooled keypair.
    pub fn add_member(&mut self, g: &mut GroupHandle) -> NodeId {
        let i = self.next;
        self.next += 1;
        let member = Member::new(
            self.cfg,
            self.cost,
            self.keys[i as usize % self.keys.len()].clone(),
            self.rs_pub.clone(),
            g.rs(),
            DeviceId::from_seed(0xD0_0000 + i),
            format!("subscriber-{i}").into_bytes(),
            true,
        );
        let id = g.sim.add_node(member);
        g.members.push(id);
        id
    }
}

/// A built group, ready for its timed phase.
pub struct Setup {
    pub g: GroupHandle,
    pub stepper: Stepper,
    /// Handed to the workload that adds members while timed.
    pub pool: Option<Pool>,
    pub keygen_s: f64,
    pub build_s: f64,
    pub settle_s: f64,
    /// Calibration slices run during set-up (one per keygen and one per
    /// settling tick), to normalise set-up time.
    pub calib: Mark,
}

/// Builds the workload's group and joins its standing population.
/// `storage` replaces every node's stable store (the traced run wraps
/// the default store to count and time storage calls).
pub fn setup(kind: Kind, seed: u64, storage: Option<StorageFactory>) -> Setup {
    let t0 = Instant::now();
    let mut calib = Calib::new();
    let mut rng = Drbg::from_seed(seed ^ 0x6D65_6D62_6572);
    let keys: Vec<RsaKeyPair> = (0..KEY_POOL)
        .map(|_| {
            calib.slice();
            RsaKeyPair::generate(768, &mut rng).expect("768-bit keygen")
        })
        .collect();
    let keygen_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut cfg = MykilConfig::test();
    cfg.rsa_bits = 768;
    cfg.tree = cfg.tree.with_backend(kind.backend());
    let cost = CryptoCost::pentium3();
    let mut b = GroupBuilder::new(seed)
        .config(cfg)
        .cost(cost)
        .areas(kind.areas())
        .replicated(kind.replicated());
    if let Some(make) = storage {
        b = b.storage_factory(make);
    }
    let mut g = b.build();
    let rs_pub = g.registration_server().public_key().clone();
    let stepper = Stepper::new(&mut g, calib);
    let build_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let mut pool = Pool {
        keys,
        cfg,
        cost,
        rs_pub,
        next: 0,
    };
    for _ in 0..kind.standing() {
        pool.add_member(&mut g);
    }
    let mut s = Setup {
        g,
        stepper,
        pool: Some(pool),
        keygen_s,
        build_s,
        settle_s: 0.0,
        calib: Mark::default(),
    };
    // Settle in whole ticks until everyone is active (bounded).
    s.stepper.calibrating = true;
    for _ in 0..60 {
        s.stepper.run_ticks(&mut s.g, &mut Idle, 10, 0);
        if s.g.members.iter().all(|&m| s.g.is_member(m)) {
            break;
        }
    }
    s.stepper.calibrating = false;
    s.settle_s = t2.elapsed().as_secs_f64();
    s.calib = s.stepper.calib.mark();
    s
}

/// Counted results of one timed phase plus the final check.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Completed workload operations (the throughput numerator).
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Virtual latencies (µs) of completed joins or ticket rejoins.
    pub vlat_us: Vec<u64>,
    /// Virtual crash-to-takeover times (µs).
    pub takeover_us: Vec<u64>,
    /// Per operation class: (attempted, failed).
    pub classes: BTreeMap<&'static str, (u64, u64)>,
    /// Further itemised counts, reported in the notes lines.
    pub counts: BTreeMap<&'static str, u64>,
    /// Outcome-check findings that are not recorded known defects.
    pub unexpected: Vec<String>,
}

impl Outcome {
    fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// Records `n` operations of class `what`, `failed` of them failed.
    fn ops_of(&mut self, what: &'static str, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
        let c = self.classes.entry(what).or_insert((0, 0));
        c.0 += n;
        c.1 += failed;
    }

    /// Records one operation of class `what`.
    fn op(&mut self, what: &'static str, ok: bool) {
        self.ops_of(what, 1, u64::from(!ok));
    }
}

/// A workload's load plus its end-of-phase accounting.
pub trait Workload: Load {
    /// Accounts for the timed phase (called right after it ends).
    fn account(&mut self, g: &GroupHandle, out: &mut Outcome);
    /// Violation kinds this workload is known to leave (recorded
    /// defects); anything else is unexpected.
    fn known_violation(&self, v: &InvariantViolation) -> bool;
}

pub fn workload(kind: Kind, seed: u64, inject: u64, s: &mut Setup) -> Box<dyn Workload> {
    match kind {
        Kind::JoinStorm => Box::new(JoinStorm {
            inject,
            joiners: Vec::new(),
            pool: s.pool.take().expect("pool handed out once"),
        }),
        Kind::RekeyFanout => Box::new(RekeyFanout::new(seed, inject, &s.g)),
        Kind::Failover => Box::new(Failover::new(seed, inject, &s.g)),
    }
}

/// Runs the timed phase; returns protocol wall seconds (calibration
/// slices excluded) and the slices run meanwhile.
pub fn run_timed(
    s: &mut Setup,
    w: &mut dyn Workload,
    inject: u64,
    out: &mut Outcome,
) -> (f64, Mark) {
    let base = s.stepper.tick();
    let mark = s.stepper.calib.mark();
    s.stepper.calibrating = true;
    let t0 = Instant::now();
    s.stepper.run_ticks(&mut s.g, w, inject + DRAIN_TICKS, base);
    let calib = s.stepper.calib.since(mark);
    let wall = t0.elapsed() - calib.busy;
    s.stepper.calibrating = false;
    w.account(&s.g, out);
    (wall.as_secs_f64(), calib)
}

/// Settles the group and runs the final outcome check.
pub fn final_check(s: &mut Setup, w: &dyn Workload, out: &mut Outcome) {
    let base = s.stepper.tick();
    s.stepper.run_ticks(&mut s.g, &mut Idle, SETTLE_TICKS, base);
    let violations = InvariantChecker::new().check(&s.g);
    let mut bad: BTreeSet<NodeId> = BTreeSet::new();
    for v in &violations {
        if let InvariantViolation::KeyDivergence { member, .. } = v {
            bad.insert(*member);
            out.count("final_key_divergence", 1);
        }
        if !w.known_violation(v) {
            out.unexpected.push(format!("{v:?}"));
        }
    }
    let inactive: Vec<NodeId> =
        s.g.members
            .iter()
            .copied()
            .filter(|&m| !s.g.is_member(m))
            .collect();
    out.count("final_inactive", inactive.len() as u64);
    out.count("final_violations", violations.len() as u64);
    bad.extend(inactive);
    out.ops_of("final_members", s.g.members.len() as u64, bad.len() as u64);
}

// ---------------------------------------------------------------- join_storm

/// Members registered per tick while injecting.
const JOINS_PER_TICK: usize = 20;

/// Open loop of fresh 7-step joins into an initially empty group.
struct JoinStorm {
    inject: u64,
    joiners: Vec<NodeId>,
    pool: Pool,
}

impl Load for JoinStorm {
    fn on_tick(&mut self, g: &mut GroupHandle, tick: u64) {
        if tick <= self.inject {
            for _ in 0..JOINS_PER_TICK {
                self.joiners.push(self.pool.add_member(g));
            }
        }
    }
}

impl Workload for JoinStorm {
    fn account(&mut self, g: &GroupHandle, out: &mut Outcome) {
        for &m in &self.joiners {
            let t = g.member(m).timings;
            let lat = match (t.join_started, t.join_completed) {
                (Some(a), Some(b)) if b >= a => Some(b.since(a).as_micros()),
                _ => None,
            };
            out.op("joins", lat.is_some());
            if let Some(us) = lat {
                out.vlat_us.push(us);
                out.ops += 1;
            }
        }
    }

    fn known_violation(&self, _v: &InvariantViolation) -> bool {
        false
    }
}

// ---------------------------------------------------------------- shared bits

/// The standing members of a group, by slot, with per-slot churn state.
struct Roster {
    nodes: Vec<NodeId>,
    /// Left, rejoining, or stuck: not eligible for new churn or sends.
    transit: Vec<bool>,
}

impl Roster {
    fn new(g: &GroupHandle) -> Roster {
        let nodes = g.members.clone();
        Roster {
            transit: vec![false; nodes.len()],
            nodes,
        }
    }

    /// A random active member not in transit.
    fn pick(&self, g: &GroupHandle, choice: &mut Choice) -> Option<usize> {
        (0..64)
            .map(|_| choice.below(self.nodes.len()))
            .find(|&s| !self.transit[s] && g.is_member(self.nodes[s]))
    }

    /// Has the member at `slot` leave its area; returns its client id
    /// and area on success.
    fn leave(&mut self, g: &mut GroupHandle, slot: usize) -> Option<(ClientId, usize)> {
        let node = self.nodes[slot];
        let m = g.member(node);
        let (client, area) = (m.client_id()?, m.area()?.0 as usize);
        let left = g.sim.invoke(node, |m: &mut Member, ctx| m.leave(ctx));
        self.transit[slot] = true;
        left.then_some((client, area))
    }
}

/// A started ticket rejoin, checked at `due`.
struct RejoinCheck {
    due: u64,
    slot: usize,
    area: usize,
}

/// Settles a rejoin check: complete when the member is active in the
/// target area with a finished rejoin handshake.
fn settle_rejoin(g: &GroupHandle, r: &Roster, c: &RejoinCheck) -> Option<u64> {
    let m = g.member(r.nodes[c.slot]);
    let t = m.timings;
    match (t.rejoin_started, t.rejoin_completed) {
        (Some(a), Some(b))
            if b >= a && m.is_active() && m.area() == Some(AreaId(c.area as u32)) =>
        {
            Some(b.since(a).as_micros())
        }
        _ => None,
    }
}

/// A random area other than `old`.
fn other_area(choice: &mut Choice, areas: usize, old: usize) -> usize {
    (old + 1 + choice.below(areas - 1)) % areas
}

// ---------------------------------------------------------------- rekey_fanout

const CHURN_EVERY: u64 = 5;
const CHURN_N: usize = 4;
const FRAME_MAGIC: [u8; 2] = *b"pb";

/// Data frames from rotating senders beside leave/rejoin churn.
struct RekeyFanout {
    inject: u64,
    areas: usize,
    choice: Choice,
    roster: Roster,
    /// Per frame: bitset of member slots expected to decrypt it.
    frames: Vec<Vec<u64>>,
    frame_tick: Vec<u64>,
    cursor: usize,
    /// Left at the last churn tick: (slot, client, area).
    away: Vec<(usize, ClientId, usize)>,
    checks: VecDeque<RejoinCheck>,
    out: Outcome,
}

impl RekeyFanout {
    fn new(seed: u64, inject: u64, g: &GroupHandle) -> RekeyFanout {
        RekeyFanout {
            inject,
            areas: g.primaries.len(),
            choice: Choice::new(seed),
            roster: Roster::new(g),
            frames: Vec::new(),
            frame_tick: Vec::new(),
            cursor: 0,
            away: Vec::new(),
            checks: VecDeque::new(),
            out: Outcome::default(),
        }
    }

    fn send_frame(&mut self, g: &mut GroupHandle, tick: u64) {
        let n = self.roster.nodes.len();
        let mut expected = vec![0u64; n.div_ceil(64)];
        for (s, &node) in self.roster.nodes.iter().enumerate() {
            if g.is_member(node) {
                expected[s / 64] |= 1 << (s % 64);
            }
        }
        let sender = (0..n)
            .map(|k| (self.cursor + k) % n)
            .find(|&s| !self.roster.transit[s] && g.is_member(self.roster.nodes[s]));
        let Some(sender) = sender else { return };
        self.cursor = sender + 1;
        let idx = self.frames.len() as u32;
        let mut payload = FRAME_MAGIC.to_vec();
        payload.extend_from_slice(&idx.to_be_bytes());
        if g.send_data(self.roster.nodes[sender], &payload) {
            self.frames.push(expected);
            self.frame_tick.push(tick);
        }
    }

    fn churn(&mut self, g: &mut GroupHandle, tick: u64) {
        for (slot, client, old) in std::mem::take(&mut self.away) {
            self.out.op("leaves", !g.ac(old).has_member(client));
            let area = other_area(&mut self.choice, self.areas, old);
            if g.move_member(self.roster.nodes[slot], area) {
                self.checks.push_back(RejoinCheck {
                    due: tick + REJOIN_DEADLINE,
                    slot,
                    area,
                });
            } else {
                self.out.op("rejoins", false);
            }
        }
        if tick > self.inject {
            return;
        }
        for _ in 0..CHURN_N {
            let Some(slot) = self.roster.pick(g, &mut self.choice) else {
                continue;
            };
            match self.roster.leave(g, slot) {
                Some((client, area)) => self.away.push((slot, client, area)),
                None => self.out.op("leaves", false),
            }
            // Frames of this tick and the previous one may still be in
            // flight to the leaver: not expected there.
            for (f, &t) in self.frame_tick.iter().enumerate().rev() {
                if t + 1 < tick {
                    break;
                }
                self.frames[f][slot / 64] &= !(1 << (slot % 64));
            }
        }
    }

    fn run_checks(&mut self, g: &GroupHandle, now: u64) {
        while self.checks.front().is_some_and(|c| c.due <= now) {
            let c = self.checks.pop_front().expect("front checked");
            let lat = settle_rejoin(g, &self.roster, &c);
            self.out.op("rejoins", lat.is_some());
            if let Some(us) = lat {
                self.out.vlat_us.push(us);
                self.roster.transit[c.slot] = false;
            }
        }
    }
}

impl Load for RekeyFanout {
    fn on_tick(&mut self, g: &mut GroupHandle, tick: u64) {
        self.run_checks(g, tick);
        if tick <= self.inject {
            self.send_frame(g, tick);
        }
        if tick.is_multiple_of(CHURN_EVERY) {
            self.churn(g, tick);
        }
    }
}

impl Workload for RekeyFanout {
    fn account(&mut self, g: &GroupHandle, out: &mut Outcome) {
        self.run_checks(g, u64::MAX);
        *out = std::mem::take(&mut self.out);
        let expected: u64 = self
            .frames
            .iter()
            .flatten()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        let mut delivered = 0u64;
        let mut fails = 0u64;
        for (s, &node) in self.roster.nodes.iter().enumerate() {
            let m = g.member(node);
            fails += m.decrypt_failures;
            for p in &m.received {
                let Some(idx) = frame_index(p) else { continue };
                let Some(bits) = self.frames.get_mut(idx) else {
                    continue;
                };
                let bit = 1u64 << (s % 64);
                if bits[s / 64] & bit != 0 {
                    bits[s / 64] &= !bit;
                    delivered += 1;
                }
            }
        }
        out.ops = delivered;
        out.ops_of("deliveries", expected, expected - delivered);
        out.count("frames_sent", self.frames.len() as u64);
        out.count("member_decrypt_failures", fails);
    }

    fn known_violation(&self, _v: &InvariantViolation) -> bool {
        false
    }
}

fn frame_index(p: &[u8]) -> Option<usize> {
    let (magic, idx) = p.split_at_checked(2)?;
    let idx: [u8; 4] = idx.try_into().ok()?;
    (magic == FRAME_MAGIC).then_some(u32::from_be_bytes(idx) as usize)
}

// ---------------------------------------------------------------- failover

/// Moves started per tick.
const MOVES_PER_TICK: usize = 2;
/// Ticks between a move's leave and its ticket rejoin.
const MOVE_GAP: u64 = 2;
/// Ticks per crash/takeover/restart cycle.
const CYCLE: u64 = 40;
/// Ticks from a primary crash to its restart.
const RESTART_AFTER: u64 = 15;

struct Crash {
    watch: NodeId,
    at: Time,
    done: bool,
}

/// Moves between replicated areas while primaries crash and restart.
struct Failover {
    inject: u64,
    areas: usize,
    choice: Choice,
    roster: Roster,
    /// Left, rejoining at `.0`: (due, slot, old area).
    away: VecDeque<(u64, usize, usize)>,
    checks: VecDeque<RejoinCheck>,
    crash: Option<Crash>,
    restarts: VecDeque<(u64, NodeId)>,
    cycles: u64,
    out: Outcome,
}

impl Failover {
    fn new(seed: u64, inject: u64, g: &GroupHandle) -> Failover {
        Failover {
            inject,
            areas: g.primaries.len(),
            choice: Choice::new(seed),
            roster: Roster::new(g),
            away: VecDeque::new(),
            checks: VecDeque::new(),
            crash: None,
            restarts: VecDeque::new(),
            cycles: 0,
            out: Outcome::default(),
        }
    }

    fn close_crash(&mut self) {
        if let Some(c) = self.crash.take() {
            self.out.op("takeovers", c.done);
        }
    }

    fn run_checks(&mut self, g: &GroupHandle, now: u64) {
        while self.checks.front().is_some_and(|c| c.due <= now) {
            let c = self.checks.pop_front().expect("front checked");
            let lat = settle_rejoin(g, &self.roster, &c);
            self.out.op("moves", lat.is_some());
            if let Some(us) = lat {
                self.out.vlat_us.push(us);
                self.out.ops += 1;
                self.roster.transit[c.slot] = false;
            }
        }
    }

    fn start_cycle(&mut self, g: &mut GroupHandle, tick: u64) {
        self.close_crash();
        let area = (self.cycles % self.areas as u64) as usize;
        self.cycles += 1;
        let Some(primary) = live_primary(g, area) else {
            self.out.op("takeovers", false);
            return;
        };
        let watch = if primary == g.primaries[area] {
            g.backups[area]
        } else {
            g.primaries[area]
        };
        g.sim.crash(primary);
        self.crash = Some(Crash {
            watch,
            at: g.now(),
            done: false,
        });
        self.restarts.push_back((tick + RESTART_AFTER, primary));
    }

    /// Starts the ticket rejoin half of a move, toward the controller
    /// the member's own directory lists for a random other area. A
    /// member's cached directory learns only its own area's takeovers,
    /// so an area whose listed controller is the live primary is
    /// preferred; when there is none the member tries a stale entry
    /// and the protocol's own retry and re-registration take over.
    fn rejoin(&mut self, g: &mut GroupHandle, tick: u64, slot: usize, old: usize) {
        let node = self.roster.nodes[slot];
        let listed = |a: usize| {
            let n = g.member(node).directory().by_area(AreaId(a as u32))?.node;
            Some((a, NodeId::from_index(n as usize)))
        };
        let first = other_area(&mut self.choice, self.areas, old);
        let target = (0..self.areas)
            .map(|k| (first + k) % self.areas)
            .filter(|&a| a != old)
            .filter_map(listed)
            .find(|&(a, to)| live_primary(g, a) == Some(to))
            .or_else(|| listed(first));
        let started = target.is_some_and(|(_, to)| {
            g.sim
                .invoke(node, |m: &mut Member, ctx| m.start_rejoin(ctx, to))
        });
        match target {
            Some((area, _)) if started => self.checks.push_back(RejoinCheck {
                due: tick + REJOIN_DEADLINE,
                slot,
                area,
            }),
            _ => {
                self.out.op("moves", false);
                self.out.count("moves_not_started", 1);
            }
        }
    }
}

/// The live node of `area` holding the primary role (the newer
/// takeover lineage if both claim it).
fn live_primary(g: &GroupHandle, area: usize) -> Option<NodeId> {
    let mut best: Option<(u64, NodeId)> = None;
    for node in [g.primaries[area]]
        .into_iter()
        .chain(g.backups.get(area).copied())
    {
        if g.sim.is_crashed(node) {
            continue;
        }
        let ac = g.sim.node::<AreaController>(node);
        if ac.role() == AcRole::Primary && best.is_none_or(|(e, _)| ac.takeover_epoch() > e) {
            best = Some((ac.takeover_epoch(), node));
        }
    }
    best.map(|(_, n)| n)
}

impl Load for Failover {
    fn on_tick(&mut self, g: &mut GroupHandle, tick: u64) {
        self.run_checks(g, tick);
        while self.restarts.front().is_some_and(|r| r.0 <= tick) {
            let (_, node) = self.restarts.pop_front().expect("front checked");
            g.sim.restart(node);
        }
        if tick <= self.inject && tick % CYCLE == 1 {
            self.start_cycle(g, tick);
        }
        while self.away.front().is_some_and(|a| a.0 <= tick) {
            let (_, slot, old) = self.away.pop_front().expect("front checked");
            self.rejoin(g, tick, slot, old);
        }
        if tick > self.inject {
            return;
        }
        for _ in 0..MOVES_PER_TICK {
            if let Some(slot) = self.roster.pick(g, &mut self.choice) {
                match self.roster.leave(g, slot) {
                    Some((_, area)) => self.away.push_back((tick + MOVE_GAP, slot, area)),
                    None => self.out.op("moves", false),
                }
            }
        }
    }

    fn after_step(&mut self, g: &GroupHandle) {
        if let Some(c) = self.crash.as_mut().filter(|c| !c.done) {
            if g.sim.node::<AreaController>(c.watch).role() == AcRole::Primary {
                c.done = true;
                self.out.takeover_us.push(g.now().since(c.at).as_micros());
            }
        }
    }
}

impl Workload for Failover {
    fn account(&mut self, g: &GroupHandle, out: &mut Outcome) {
        self.run_checks(g, u64::MAX);
        self.close_crash();
        *out = std::mem::take(&mut self.out);
        out.count("cycles", self.cycles);
    }

    /// Restart divergence: a restarted primary recovers as `Primary`
    /// and resyncs its old members before the epoch fence demotes it,
    /// leaving them on the demoted node's key.
    fn known_violation(&self, v: &InvariantViolation) -> bool {
        matches!(v, InvariantViolation::KeyDivergence { .. })
    }
}
