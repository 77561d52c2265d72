//! The algorithmic Mykil model: one auxiliary-key tree per area.
//!
//! This is the rekeying core of Mykil without the protocol plumbing
//! (handshakes, tickets, liveness), used for large-scale byte
//! accounting: the bandwidth figures depend only on which keys change
//! and how they are encrypted, which this model reproduces exactly.
//! Members are assigned to areas round-robin, mirroring the
//! registration server's load-balancing policy.

use crate::traffic::RekeyTraffic;
use crate::KeyManager;
use mykil_tree::{KeyTree, MemberId, TreeConfig, KEY_LEN};
use rand::RngCore;
use std::collections::BTreeMap;

/// Mykil's area-partitioned key manager.
#[derive(Debug, Clone)]
pub struct MykilModel {
    areas: Vec<KeyTree>,
    area_of: BTreeMap<MemberId, usize>,
    next_area: usize,
}

impl MykilModel {
    /// Creates a model with `areas` areas.
    ///
    /// # Panics
    ///
    /// Panics when `areas` is zero.
    pub fn new<R: RngCore + ?Sized>(areas: usize, cfg: TreeConfig, rng: &mut R) -> MykilModel {
        assert!(areas > 0, "at least one area required");
        MykilModel {
            areas: (0..areas).map(|_| KeyTree::new(cfg, rng)).collect(),
            area_of: BTreeMap::new(),
            next_area: 0,
        }
    }

    /// Number of areas.
    pub fn area_count(&self) -> usize {
        self.areas.len()
    }

    /// The area a member lives in.
    pub fn area_of(&self, member: MemberId) -> Option<usize> {
        self.area_of.get(&member).copied()
    }

    /// A specific area's tree (inspection).
    pub fn area_tree(&self, area: usize) -> &KeyTree {
        &self.areas[area]
    }

    /// Aggregated leave of members that may span areas: each affected
    /// area performs one batched rekey (Section III-E per-area
    /// aggregation).
    pub fn batch_leave_multi_area(
        &mut self,
        members: &[MemberId],
        rng: &mut dyn RngCore,
    ) -> RekeyTraffic {
        let mut by_area: BTreeMap<usize, Vec<MemberId>> = BTreeMap::new();
        for &m in members {
            if let Some(a) = self.area_of.remove(&m) {
                by_area.entry(a).or_default().push(m);
            }
        }
        let mut total = RekeyTraffic::default();
        for (area, leavers) in by_area {
            if let Ok(out) = self.areas[area].batch_leave(&leavers, rng) {
                total += RekeyTraffic::from(&out.plan);
            }
        }
        total
    }
}

impl KeyManager for MykilModel {
    fn join(&mut self, member: MemberId, rng: &mut dyn RngCore) -> RekeyTraffic {
        if self.area_of.contains_key(&member) {
            return RekeyTraffic::default();
        }
        let area = self.next_area % self.areas.len();
        self.next_area += 1;
        match self.areas[area].join(member, rng) {
            Ok(plan) => {
                self.area_of.insert(member, area);
                RekeyTraffic::from(&plan)
            }
            Err(_) => RekeyTraffic::default(),
        }
    }

    fn leave(&mut self, member: MemberId, rng: &mut dyn RngCore) -> RekeyTraffic {
        let Some(area) = self.area_of.remove(&member) else {
            return RekeyTraffic::default();
        };
        match self.areas[area].leave(member, rng) {
            Ok(plan) => RekeyTraffic::from(&plan),
            Err(_) => RekeyTraffic::default(),
        }
    }

    fn batch_leave(&mut self, members: &[MemberId], rng: &mut dyn RngCore) -> RekeyTraffic {
        self.batch_leave_multi_area(members, rng)
    }

    fn member_count(&self) -> usize {
        self.area_of.len()
    }

    fn member_storage_bytes(&self) -> u64 {
        // Path length in the (largest) area tree.
        let h = self.areas.iter().map(|t| t.height()).max().unwrap_or(0);
        (h as u64 + 1) * KEY_LEN as u64
    }

    fn controller_storage_bytes(&self) -> u64 {
        self.areas
            .iter()
            .map(|t| t.node_count() as u64 * KEY_LEN as u64)
            .max()
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "mykil"
    }
}

/// Closed-form aggregate of one area's *cold* membership, for the
/// hybrid hot/cold simulation mode (ISSUE 7).
///
/// At million-member scale only the members currently joining, leaving,
/// moving or failing ("hot") are worth simulating as protocol nodes;
/// everyone else sits in a key tree generating no events. This model
/// stands in for those cold members: it tracks their count, the area's
/// key epoch, and the rekey bytes their membership events *would* have
/// put on the wire, using the same closed forms as `mykil-analysis`
/// (which the measured `MykilModel` validates at small scale — see the
/// cross-check tests below).
///
/// What it does **not** model: per-member key material, handshake
/// control traffic, retransmissions, or timing — hot members exist for
/// exactly that. Moving a member between the hot pool and this
/// aggregate is free by design ([`ColdAreaModel::absorb`] /
/// [`ColdAreaModel::release`]): the real join/leave cost was (or will
/// be) accounted by whichever side performs the membership event.
#[derive(Debug, Clone)]
pub struct ColdAreaModel {
    cold: u64,
    epoch: u64,
    leave_batches: u64,
    traffic: RekeyTraffic,
    params: mykil_analysis::Params,
}

impl ColdAreaModel {
    /// An empty aggregate for one area.
    pub fn new(key_len: u64, rsa_len: u64, arity: u64) -> ColdAreaModel {
        ColdAreaModel {
            cold: 0,
            epoch: 0,
            leave_batches: 0,
            traffic: RekeyTraffic::default(),
            // One synthetic area whose `members` tracks the cold count,
            // so `area_size()` is always the aggregate's current size.
            params: mykil_analysis::Params {
                members: 0,
                areas: 1,
                key_len,
                rsa_len,
                arity,
            },
        }
    }

    /// Cold members currently aggregated.
    pub fn cold_members(&self) -> u64 {
        self.cold
    }

    /// Area-key epoch: bumps once per leave rekey batch (the
    /// forward-secrecy analog — departed members must not outlive the
    /// key they held).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of leave batches performed (each bumped the epoch once).
    pub fn leave_batches(&self) -> u64 {
        self.leave_batches
    }

    /// Total modeled rekey traffic so far.
    pub fn traffic(&self) -> RekeyTraffic {
        self.traffic
    }

    /// A member joins the area directly into the aggregate: the keys on
    /// the newcomer's path are refreshed and multicast to the existing
    /// members (one re-encryption per changed key — what the measured
    /// `KeyTree` join does, a superset of Figure 8's single area-key
    /// multicast), plus the unicast key path to the newcomer. Returns
    /// the traffic charged.
    pub fn join(&mut self) -> RekeyTraffic {
        self.cold += 1;
        self.params.members = self.cold;
        self.charge_join_at(self.cold)
    }

    /// Accounts the rekey traffic of admitting one member into an area
    /// of `size` members (counted *after* the join), without touching
    /// the cold population — for hybrid controllers whose area size is
    /// `cold + hot` and who track the hot side themselves.
    pub fn charge_join_at(&mut self, size: u64) -> RekeyTraffic {
        let p = mykil_analysis::Params {
            members: size.max(1),
            ..self.params
        };
        let path = mykil_analysis::bandwidth::mykil_join_unicast_bytes(&p);
        let t = RekeyTraffic {
            multicast_bytes: path.max(mykil_analysis::bandwidth::join_multicast_bytes(&p)),
            multicast_messages: 1,
            unicast_bytes: path,
            unicast_messages: 1,
        };
        self.traffic += t;
        t
    }

    /// Accounts one single-member leave rekey in an area of `size`
    /// members (counted *before* the leave) and rotates the key, again
    /// without touching the cold population.
    pub fn charge_single_leave_at(&mut self, size: u64) -> RekeyTraffic {
        let p = mykil_analysis::Params {
            members: size.max(1),
            ..self.params
        };
        let t = RekeyTraffic {
            multicast_bytes: mykil_analysis::bandwidth::mykil_leave_bytes(&p),
            multicast_messages: 1,
            unicast_bytes: 0,
            unicast_messages: 0,
        };
        self.epoch += 1;
        self.leave_batches += 1;
        self.traffic += t;
        t
    }

    /// Accounts one member *moving out* of this area (inter-area
    /// mobility, the paper's ticket-rejoin across areas): from the
    /// source area's perspective a departure is a departure — the keys
    /// on the leaver's path must rotate so the mover cannot read this
    /// area's traffic from its new home. Cost and epoch behaviour are
    /// therefore exactly a single-leave rekey at the pre-departure
    /// `size` (see the KeyTree cross-check test: a measured
    /// leave-here/join-there pair tracks `move_out + move_in`). Does
    /// not touch the cold population — the caller decides whether the
    /// mover was hot or cold.
    pub fn charge_move_out_at(&mut self, size: u64) -> RekeyTraffic {
        let p = mykil_analysis::Params {
            members: size.max(1),
            ..self.params
        };
        let t = RekeyTraffic {
            multicast_bytes: mykil_analysis::bandwidth::mykil_leave_bytes(&p),
            multicast_messages: 1,
            unicast_bytes: 0,
            unicast_messages: 0,
        };
        self.epoch += 1;
        self.leave_batches += 1;
        self.traffic += t;
        t
    }

    /// Accounts one member *moving into* this area on a ticket rejoin.
    /// The ticket spares the registration-server round trip, not the
    /// key management: the newcomer still gets a fresh unicast key path
    /// and the keys on that path are refreshed for the existing members,
    /// i.e. the cost of a join at the post-arrival `size`. Does not
    /// touch the cold population.
    pub fn charge_move_in_at(&mut self, size: u64) -> RekeyTraffic {
        self.charge_join_at(size)
    }

    /// A batch of `k` cold members leaves: one aggregated rekey using
    /// the worst-case (disjoint-paths) closed form, so the model never
    /// under-reports against a measured tree. Bumps the epoch once.
    /// Returns the traffic charged; `k = 0` is a no-op.
    pub fn batch_leave(&mut self, k: u64) -> RekeyTraffic {
        let k = k.min(self.cold);
        if k == 0 {
            return RekeyTraffic::default();
        }
        // Cost forms depend on the pre-departure tree size.
        let bytes = mykil_analysis::bandwidth::mykil_batch_leave_bytes_worst(&self.params, k);
        self.cold -= k;
        self.params.members = self.cold;
        self.epoch += 1;
        self.leave_batches += 1;
        let t = RekeyTraffic {
            multicast_bytes: bytes,
            multicast_messages: 1,
            unicast_bytes: 0,
            unicast_messages: 0,
        };
        self.traffic += t;
        t
    }

    /// Absorbs `n` hot members into the aggregate (demotion). Free: the
    /// join that admitted them was accounted by the hot handshake path.
    pub fn absorb(&mut self, n: u64) {
        self.cold += n;
        self.params.members = self.cold;
    }

    /// Releases up to `n` members back to the hot pool (promotion),
    /// returning how many were actually available. Free: whatever
    /// membership event follows is accounted by the hot path.
    pub fn release(&mut self, n: u64) -> u64 {
        let n = n.min(self.cold);
        self.cold -= n;
        self.params.members = self.cold;
        n
    }

    /// Marks a hot-path leave rekey in this area: the epoch advances
    /// (the key rotated) but the bytes were accounted by the caller.
    pub fn note_hot_leave_rekey(&mut self) {
        self.epoch += 1;
        self.leave_batches += 1;
    }

    /// Closed-form controller storage for the current aggregate size
    /// (symmetric tree keys + public key material).
    pub fn controller_storage_bytes(&self) -> u64 {
        let c = mykil_analysis::storage::mykil_controller(&self.params);
        c.symmetric + c.public
    }

    /// Closed-form per-member storage at the current aggregate size.
    pub fn member_storage_bytes(&self) -> u64 {
        let c = mykil_analysis::storage::mykil_member(&self.params);
        c.symmetric + c.public
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;

    #[test]
    fn members_spread_round_robin() {
        let mut rng = Drbg::from_seed(1);
        let mut m = MykilModel::new(4, TreeConfig::quad(), &mut rng);
        crate::populate(&mut m, 40, &mut rng);
        for area in 0..4 {
            assert_eq!(m.area_tree(area).member_count(), 10);
        }
        assert_eq!(m.area_of(MemberId(0)), Some(0));
        assert_eq!(m.area_of(MemberId(1)), Some(1));
    }

    #[test]
    fn leave_touches_only_one_area() {
        let mut rng = Drbg::from_seed(2);
        let mut m = MykilModel::new(4, TreeConfig::binary(), &mut rng);
        crate::populate(&mut m, 400, &mut rng);
        let keys_before: Vec<_> = (0..4).map(|a| m.area_tree(a).area_key()).collect();
        let victim = MemberId(5);
        let victim_area = m.area_of(victim).unwrap();
        m.leave(victim, &mut rng);
        for (a, before) in keys_before.into_iter().enumerate() {
            if a == victim_area {
                assert_ne!(m.area_tree(a).area_key(), before);
            } else {
                assert_eq!(m.area_tree(a).area_key(), before);
            }
        }
    }

    #[test]
    fn leave_cost_depends_on_area_not_group() {
        let mut rng = Drbg::from_seed(3);
        // Same total group size, different area counts.
        let mut few = MykilModel::new(2, TreeConfig::binary(), &mut rng);
        let mut many = MykilModel::new(16, TreeConfig::binary(), &mut rng);
        crate::populate(&mut few, 1600, &mut rng);
        crate::populate(&mut many, 1600, &mut rng);
        let t_few = few.leave(MemberId(100), &mut rng).total_key_bytes();
        let t_many = many.leave(MemberId(100), &mut rng).total_key_bytes();
        assert!(t_many < t_few, "more areas must mean cheaper leaves");
    }

    #[test]
    fn multi_area_batch_leave() {
        let mut rng = Drbg::from_seed(4);
        let mut m = MykilModel::new(4, TreeConfig::quad(), &mut rng);
        crate::populate(&mut m, 100, &mut rng);
        // Members 0..8 spread across all areas round-robin.
        let leavers: Vec<MemberId> = (0..8).map(MemberId).collect();
        let t = m.batch_leave(&leavers, &mut rng);
        assert_eq!(m.member_count(), 92);
        assert!(t.multicast_messages <= 4, "one rekey per area at most");
    }

    #[test]
    fn storage_between_iolus_and_lkh() {
        let mut rng = Drbg::from_seed(5);
        let mut mykil = MykilModel::new(20, TreeConfig::binary(), &mut rng);
        let mut lkh = crate::FlatLkh::new(TreeConfig::binary(), &mut rng);
        crate::populate(&mut mykil, 5000, &mut rng);
        crate::populate(&mut lkh, 5000, &mut rng);
        assert!(mykil.member_storage_bytes() < lkh.member_storage_bytes());
        assert!(mykil.controller_storage_bytes() < lkh.controller_storage_bytes());
        assert!(mykil.member_storage_bytes() > 32);
    }

    #[test]
    #[should_panic(expected = "at least one area")]
    fn zero_areas_panics() {
        let mut rng = Drbg::from_seed(6);
        let _ = MykilModel::new(0, TreeConfig::quad(), &mut rng);
    }

    /// The cold aggregate's closed forms must track the measured
    /// `MykilModel` (one real key tree) within a modest band at a size
    /// where simulating the tree is still cheap — that agreement is
    /// what justifies substituting the aggregate for cold members at
    /// scales the tree cannot reach.
    #[test]
    fn cold_aggregate_tracks_measured_tree() {
        let mut rng = Drbg::from_seed(7);
        let mut measured = MykilModel::new(1, TreeConfig::binary(), &mut rng);
        let mut cold = ColdAreaModel::new(KEY_LEN as u64, 256, 2);

        // Same 2,000 joins on both sides.
        let mut measured_join = RekeyTraffic::default();
        for i in 0..2000u64 {
            measured_join += measured.join(MemberId(i), &mut rng);
            cold.join();
        }
        assert_eq!(cold.cold_members(), 2000);
        let modeled_join = cold.traffic();
        // The closed form uses ceil(log_arity) heights while the
        // measured tree's height depends on fill order, so agreement is
        // a band, not equality.
        let (mj, cj) = (
            measured_join.total_key_bytes() as f64,
            modeled_join.total_key_bytes() as f64,
        );
        assert!(
            cj >= 0.8 * mj && cj <= 1.3 * mj,
            "join bytes diverged: measured {mj}, modeled {cj}"
        );

        // A 50-member batch leave on both sides.
        let leavers: Vec<MemberId> = (0..50).map(|i| MemberId(i * 37)).collect();
        let measured_leave = measured.batch_leave(&leavers, &mut rng);
        let modeled_leave = cold.batch_leave(50);
        assert_eq!(cold.cold_members(), 1950);
        assert_eq!(cold.epoch(), 1, "a leave batch must rotate the key once");
        let (ml, cl) = (
            measured_leave.total_key_bytes() as f64,
            modeled_leave.total_key_bytes() as f64,
        );
        // Worst-case closed form: must not under-report the measured
        // cost (beyond rounding) and must stay within a small multiple.
        assert!(
            cl >= 0.9 * ml && cl <= 3.0 * ml,
            "leave bytes diverged: measured {ml}, modeled {cl}"
        );

        // Storage forms agree with the measured trees' order too.
        let modeled = cold.controller_storage_bytes() as f64;
        let measured_ctl = measured.controller_storage_bytes() as f64;
        assert!(
            modeled >= 0.5 * measured_ctl && modeled <= 2.5 * measured_ctl,
            "controller storage diverged: measured {measured_ctl}, modeled {modeled}"
        );
    }

    /// An inter-area move charged through the closed forms must track
    /// what two measured `KeyTree`s do when a member actually leaves
    /// one and joins the other — the justification for `move_out` /
    /// `move_in` charging in the hybrid mobility storm, exactly like
    /// the join/leave cross-check above.
    #[test]
    fn cold_aggregate_move_charging_tracks_measured_trees() {
        let mut rng = Drbg::from_seed(11);
        // Two measured areas of 1,000 members each.
        let mut src = MykilModel::new(1, TreeConfig::binary(), &mut rng);
        let mut dst = MykilModel::new(1, TreeConfig::binary(), &mut rng);
        for i in 0..1000u64 {
            src.join(MemberId(i), &mut rng);
            dst.join(MemberId(10_000 + i), &mut rng);
        }
        // The modeled counterparts at the same sizes.
        let mut cold_src = ColdAreaModel::new(KEY_LEN as u64, 256, 2);
        let mut cold_dst = ColdAreaModel::new(KEY_LEN as u64, 256, 2);
        cold_src.absorb(1000);
        cold_dst.absorb(1000);

        // Move 200 members src -> dst on both sides.
        let mut measured = RekeyTraffic::default();
        let mut modeled = RekeyTraffic::default();
        for i in 0..200u64 {
            measured += src.leave(MemberId(i), &mut rng);
            measured += dst.join(MemberId(20_000 + i), &mut rng);

            modeled += cold_src.charge_move_out_at(cold_src.cold_members());
            cold_src.release(1);
            cold_dst.absorb(1);
            modeled += cold_dst.charge_move_in_at(cold_dst.cold_members());
        }
        assert_eq!(cold_src.cold_members(), 800);
        assert_eq!(cold_dst.cold_members(), 1200);
        // Forward secrecy on the source side: every departure rotated
        // the key; arrivals alone never do.
        assert_eq!(cold_src.epoch(), 200);
        assert_eq!(cold_dst.epoch(), 0);

        // Same closed-form-vs-measured band as the join/leave check:
        // ceil-log heights vs fill-order heights.
        let (m, c) = (
            measured.total_key_bytes() as f64,
            modeled.total_key_bytes() as f64,
        );
        assert!(
            c >= 0.8 * m && c <= 1.3 * m,
            "move bytes diverged: measured {m}, modeled {c}"
        );
        // And a move must charge both sides: multicast (rotation in
        // both areas) plus the unicast key path to the mover's new
        // leaf.
        assert_eq!(modeled.unicast_messages, 200);
        assert_eq!(modeled.multicast_messages, 400);
    }

    /// Hot/cold bookkeeping: absorb/release move members without
    /// traffic; epochs only move on leave rekeys.
    #[test]
    fn cold_aggregate_absorb_release_are_free() {
        let mut cold = ColdAreaModel::new(16, 256, 2);
        cold.absorb(100);
        assert_eq!(cold.cold_members(), 100);
        assert_eq!(cold.traffic(), RekeyTraffic::default());
        assert_eq!(cold.release(30), 30);
        assert_eq!(cold.cold_members(), 70);
        assert_eq!(cold.release(1000), 70, "release caps at the population");
        assert_eq!(cold.cold_members(), 0);
        assert_eq!(cold.traffic(), RekeyTraffic::default());
        assert_eq!(cold.epoch(), 0);
        assert_eq!(cold.batch_leave(5), RekeyTraffic::default());
        assert_eq!(cold.epoch(), 0, "empty batch must not rotate the key");
        cold.note_hot_leave_rekey();
        assert_eq!(cold.epoch(), 1);
        assert_eq!(cold.leave_batches(), 1);
    }
}
