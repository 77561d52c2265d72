//! Backend equivalence: the explicit tree and the keyed-hash forest
//! must be *protocol-indistinguishable*. Key values necessarily differ
//! (each backend draws/derives its own), so equivalence means:
//!
//! - identical tree shape and member placement for the same schedule,
//! - identical plan structure — changed nodes, encryption provenance
//!   ([`EncryptUnder`]), and unicast recipients/node lists — i.e. the
//!   same wire-message sizes and the same readable-by sets,
//! - identical member-visible verdicts: every present member's view
//!   converges to its path, departed members learn nothing,
//! - both backends pass `check_invariants` at every step.
//!
//! The area controller's runtime-selected tree must in turn be
//! bit-identical to the backend it selects: same plans and key values,
//! same snapshot bytes, same resident key bytes.

use mykil_crypto::drbg::Drbg;
use mykil_tree::{
    AreaKeys, EncryptUnder, ExplicitKeys, KeyStore, KhfKeys, MemberId, MemberView, RekeyPlan,
    Tree, TreeBackend, TreeConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Join(u8),
    LeaveNth(u8),
    Batch { joins: u8, leave_picks: Vec<u8> },
    RotateArea,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..5).prop_map(Op::Join),
        (0u8..255).prop_map(Op::LeaveNth),
        ((0u8..4), proptest::collection::vec(0u8..255, 0..4))
            .prop_map(|(joins, leave_picks)| Op::Batch { joins, leave_picks }),
        Just(Op::RotateArea),
    ]
}

/// Everything member-visible about a plan except the key bytes.
type PlanShape = (
    Vec<(usize, Vec<EncryptUnder>)>,
    Vec<(MemberId, Vec<usize>)>,
);

fn shape(plan: &RekeyPlan) -> PlanShape {
    (
        plan.changes
            .iter()
            .map(|c| {
                (
                    c.node.raw(),
                    c.encryptions.iter().map(|(under, _)| *under).collect(),
                )
            })
            .collect(),
        plan.unicasts
            .iter()
            .map(|u| (u.member, u.keys.iter().map(|(n, _)| n.raw()).collect()))
            .collect(),
    )
}

/// One backend's protocol state: the tree plus live per-member views,
/// updated exactly as the real distribution flow would.
struct Side<S: KeyStore> {
    tree: Tree<S>,
    views: BTreeMap<MemberId, MemberView>,
    rng: Drbg,
}

impl<S: KeyStore> Side<S> {
    fn new(cfg: TreeConfig, seed: u64) -> Self {
        let mut rng = Drbg::from_seed(seed);
        Side {
            tree: Tree::<S>::new(cfg, &mut rng),
            views: BTreeMap::new(),
            rng,
        }
    }

    fn distribute(&mut self, plan: &RekeyPlan) {
        for v in self.views.values_mut() {
            v.apply_plan(plan);
        }
        for u in &plan.unicasts {
            self.views
                .entry(u.member)
                .or_insert_with(|| MemberView::new(u.member))
                .apply_unicast(u);
        }
    }

    /// Asserts the per-backend member-visible verdicts: departed views
    /// learn nothing, surviving views match the tree's paths.
    fn check_converged(&self) {
        self.tree.check_invariants();
        let mut path = Vec::new();
        for m in self.tree.members() {
            let v = &self.views[&m];
            self.tree.path_keys_into(m, &mut path).unwrap();
            for (node, key) in path.drain(..) {
                assert_eq!(v.key(node), Some(key), "{m} stale at {node}");
            }
        }
    }

    /// Drops the views of `gone` after asserting none of them can read
    /// anything in `plan` (forward secrecy).
    fn evict(&mut self, gone: &[MemberId], plan: &RekeyPlan) {
        for m in gone {
            let mut view = self.views.remove(m).unwrap();
            assert_eq!(view.apply_plan(plan), 0, "{m} reads a rekey after leaving");
        }
    }

    /// Runs `op` on the tree and distributes its plans to the member
    /// views, returning the plans in order. New members are numbered
    /// from `next_member`; leavers are picked from the current members.
    fn apply(&mut self, op: &Op, next_member: &mut u64) -> Vec<RekeyPlan> {
        let members: Vec<MemberId> = self.tree.members().collect();
        let pick = |p: &u8| members.get(*p as usize % members.len().max(1)).copied();
        let mut fresh = |n: u8| -> Vec<MemberId> {
            (0..n)
                .map(|_| {
                    *next_member += 1;
                    MemberId(*next_member - 1)
                })
                .collect()
        };
        let (plan, gone) = match op {
            Op::Join(n) => {
                let mut plans = Vec::new();
                for m in fresh(*n) {
                    let plan = self.tree.join(m, &mut self.rng).unwrap();
                    self.distribute(&plan);
                    plans.push(plan);
                }
                return plans;
            }
            Op::LeaveNth(n) => {
                let Some(victim) = pick(n) else {
                    return Vec::new();
                };
                (self.tree.leave(victim, &mut self.rng).unwrap(), vec![victim])
            }
            Op::Batch { joins, leave_picks } => {
                let mut leavers: Vec<MemberId> = leave_picks.iter().filter_map(pick).collect();
                leavers.sort_unstable();
                leavers.dedup();
                let joiners = fresh(*joins);
                let outcome = self.tree.batch(&joiners, &leavers, &mut self.rng).unwrap();
                (outcome.plan, leavers)
            }
            Op::RotateArea => (self.tree.rotate_area_key(&mut self.rng), Vec::new()),
        };
        self.evict(&gone, &plan);
        self.distribute(&plan);
        vec![plan]
    }
}

fn run_equivalence(arity: usize, seed: u64, ops: &[Op]) {
    let cfg = TreeConfig::with_arity(arity);
    // Different RNG streams on purpose: equivalence must not depend on
    // the backends drawing the same bytes.
    let mut e: Side<ExplicitKeys> = Side::new(cfg, seed);
    let mut k: Side<KhfKeys> = Side::new(cfg, seed ^ 0x5eed_cafe);
    let (mut next_e, mut next_k) = (0u64, 0u64);

    for op in ops {
        let pe = e.apply(op, &mut next_e);
        let pk = k.apply(op, &mut next_k);
        let shapes = |plans: &[RekeyPlan]| plans.iter().map(shape).collect::<Vec<_>>();
        assert_eq!(shapes(&pe), shapes(&pk), "{op:?} plans diverge");

        // Structure equivalence after every operation.
        assert_eq!(e.tree.node_count(), k.tree.node_count());
        assert_eq!(e.tree.member_count(), k.tree.member_count());
        assert_eq!(e.tree.height(), k.tree.height());
        let me: Vec<MemberId> = e.tree.members().collect();
        let mk: Vec<MemberId> = k.tree.members().collect();
        assert_eq!(me, mk, "membership diverged");
        for m in &me {
            assert_eq!(e.tree.leaf_of(*m).unwrap(), k.tree.leaf_of(*m).unwrap());
        }
        for i in 0..e.tree.node_count() {
            let n = mykil_tree::NodeIdx::from_raw(i);
            assert_eq!(e.tree.version_of(n), k.tree.version_of(n), "{n} version");
        }
        e.check_converged();
        k.check_converged();
    }

    // The forest's whole point: resident key material stays bounded by
    // the override set instead of the node count.
    if e.tree.node_count() > 1 {
        assert!(
            k.tree.resident_key_bytes() <= e.tree.resident_key_bytes() + 32,
            "khf resident {} explicit {}",
            k.tree.resident_key_bytes(),
            e.tree.resident_key_bytes()
        );
    }
}

/// [`AreaTree`](mykil_tree::AreaTree) selecting `backend` against the
/// `Tree<S>` it wraps, on the same seed: every plan (keys included),
/// every snapshot byte and the resident key bytes must match after
/// every operation. This is what keeps replays through an area
/// controller byte-identical to the bare backend.
fn run_area_identity<S: KeyStore>(backend: TreeBackend, arity: usize, seed: u64, ops: &[Op]) {
    let cfg = TreeConfig::with_arity(arity).with_backend(backend);
    let mut area: Side<AreaKeys> = Side::new(cfg, seed);
    let mut bare: Side<S> = Side::new(cfg, seed);
    let (mut next_a, mut next_b) = (0u64, 0u64);
    assert_eq!(area.tree.snapshot(), bare.tree.snapshot());
    for op in ops {
        let pa = area.apply(op, &mut next_a);
        let pb = bare.apply(op, &mut next_b);
        assert_eq!(pa, pb, "{op:?} plans differ");
        assert_eq!(area.tree.snapshot(), bare.tree.snapshot(), "{op:?} snapshots differ");
        assert_eq!(area.tree.resident_key_bytes(), bare.tree.resident_key_bytes());
    }
    area.check_converged();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn backends_are_protocol_equivalent_quad(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        run_equivalence(4, seed, &ops);
    }

    #[test]
    fn backends_are_protocol_equivalent_binary(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        run_equivalence(2, seed, &ops);
    }

    #[test]
    fn area_tree_is_bit_identical_to_its_backend(
        seed in any::<u64>(),
        arity in 2usize..5,
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        run_area_identity::<ExplicitKeys>(TreeBackend::Explicit, arity, seed, &ops);
        run_area_identity::<KhfKeys>(TreeBackend::Khf, arity, seed, &ops);
    }

    /// Snapshot round-trips preserve every per-node version counter on
    /// both backends, and re-snapshotting is byte-identical (the
    /// canonical-form property the fuzz oracle relies on).
    #[test]
    fn snapshot_round_trip_preserves_versions(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        fn check<S: KeyStore>(tree: &Tree<S>) {
            let snap = tree.snapshot();
            let restored = Tree::<S>::restore(&snap).unwrap();
            restored.check_invariants();
            for i in 0..tree.node_count() {
                let n = mykil_tree::NodeIdx::from_raw(i);
                prop_assert_eq_impl(restored.version_of(n), tree.version_of(n));
                prop_assert_eq_impl(
                    restored.node_key(n).as_bytes().to_vec(),
                    tree.node_key(n).as_bytes().to_vec(),
                );
            }
            assert_eq!(restored.snapshot(), snap, "re-snapshot not canonical");
        }
        fn prop_assert_eq_impl<T: PartialEq + std::fmt::Debug>(a: T, b: T) {
            assert_eq!(a, b);
        }

        let cfg = TreeConfig::quad();
        let mut e: Side<ExplicitKeys> = Side::new(cfg, seed);
        let mut k: Side<KhfKeys> = Side::new(cfg, seed ^ 1);
        let mut next = 0u64;
        for op in &ops {
            match op {
                Op::Join(n) => {
                    for _ in 0..*n {
                        e.tree.join(MemberId(next), &mut e.rng).unwrap();
                        k.tree.join(MemberId(next), &mut k.rng).unwrap();
                        next += 1;
                    }
                }
                Op::LeaveNth(n) => {
                    let members: Vec<MemberId> = e.tree.members().collect();
                    if let Some(&victim) = members.get(*n as usize % members.len().max(1)) {
                        e.tree.leave(victim, &mut e.rng).unwrap();
                        k.tree.leave(victim, &mut k.rng).unwrap();
                    }
                }
                Op::Batch { .. } | Op::RotateArea => {
                    e.tree.rotate_area_key(&mut e.rng);
                    k.tree.rotate_area_key(&mut k.rng);
                }
            }
        }
        check(&e.tree);
        check(&k.tree);
    }
}
