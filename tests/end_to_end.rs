//! Workspace integration tests: full-stack scenarios spanning every
//! crate — crypto substrate, simulator, key trees, protocol, baselines
//! and analytic models together.

use mykil::config::BatchPolicy;
use mykil::group::GroupBuilder;
use mykil_net::Duration;

/// A miniature pay-per-view service: subscribers join over time, frames
/// stream continuously, subscribers churn, and nobody ever decrypts a
/// frame they should not see.
#[test]
fn pay_per_view_lifecycle() {
    let mut g = GroupBuilder::new(100)
        .areas(2)
        .batch_policy(BatchPolicy::OnDataOrTimer)
        .build();

    // Season 1: three subscribers.
    let subs: Vec<_> = (0..3).map(|i| g.register_member(i)).collect();
    g.settle();
    for &s in &subs {
        assert!(g.is_member(s));
    }

    // Broadcaster streams frames (any member can send).
    g.send_data(subs[0], b"frame-1");
    g.run_for(Duration::from_secs(1));
    for &s in &subs {
        assert!(g.received_data(s).contains(&b"frame-1".to_vec()));
    }

    // One subscriber churns out (goes dark) and a new one churns in.
    g.sim.partition(subs[2], 7);
    let late = g.register_member(10);
    g.run_for(Duration::from_secs(5)); // eviction happens

    g.send_data(subs[0], b"frame-2");
    g.run_for(Duration::from_secs(1));
    assert!(g.received_data(subs[1]).contains(&b"frame-2".to_vec()));
    assert!(g.received_data(late).contains(&b"frame-2".to_vec()));
    // The departed subscriber never saw frame 2.
    assert!(!g.received_data(subs[2]).contains(&b"frame-2".to_vec()));
    // And the late joiner never saw frame 1 (backward secrecy in
    // effect: it was not in the group yet).
    assert!(!g.received_data(late).contains(&b"frame-1".to_vec()));
}

/// The whole protocol stack runs unchanged on the keyed-hash-forest
/// tree backend: joins, data flow, secrecy-preserving churn, and a
/// primary crash where the backup takes over from an `MKH1` snapshot.
#[test]
fn khf_backend_full_protocol_with_failover() {
    use mykil_tree::TreeBackend;

    let mut g = GroupBuilder::new(103)
        .areas(1)
        .replicated(true)
        .tree_backend(TreeBackend::Khf)
        .build();
    let members: Vec<_> = (0..5).map(|i| g.register_member(i)).collect();
    g.settle();
    for &m in &members {
        assert!(g.is_member(m));
    }
    assert_eq!(g.ac(0).tree().config().backend(), TreeBackend::Khf);

    g.send_data(members[0], b"khf frame");
    g.run_for(Duration::from_secs(1));
    for &m in &members {
        assert!(g.received_data(m).contains(&b"khf frame".to_vec()));
    }

    // Forward secrecy holds on the derivation backend: the evicted
    // member's leave is a Fresh (non-derivable) rotation.
    g.sim.partition(members[4], 7);
    g.run_for(Duration::from_secs(5));
    g.send_data(members[0], b"khf frame 2");
    g.run_for(Duration::from_secs(1));
    assert!(!g.received_data(members[4]).contains(&b"khf frame 2".to_vec()));
    assert!(g.received_data(members[1]).contains(&b"khf frame 2".to_vec()));

    // The controller machine dies; the backup restores the replicated
    // MKH1 snapshot and continues on the same backend.
    g.crash_ac(0);
    g.run_for(Duration::from_secs(3));
    assert_eq!(g.backup(0).role(), mykil::area::Role::Primary);
    assert_eq!(g.backup(0).tree().config().backend(), TreeBackend::Khf);

    let late = g.register_member(50);
    g.run_for(Duration::from_secs(3));
    assert!(g.is_member(late));
    g.send_data(members[0], b"khf frame 3");
    g.run_for(Duration::from_secs(2));
    for m in [members[0], members[1], members[2], members[3], late] {
        assert!(g.received_data(m).contains(&b"khf frame 3".to_vec()));
    }
}

/// The protocol's storage numbers match the analytic model's
/// predictions from `mykil-analysis` (Section V-A cross-check).
#[test]
fn storage_matches_analytic_model() {
    use mykil_analysis::{storage, Params};
    use mykil_baselines::{KeyManager, MykilModel};
    use mykil_crypto::drbg::Drbg;
    use mykil_tree::TreeConfig;

    let n = 4_000u64;
    let areas = 8u64;
    let p = Params {
        members: n,
        areas,
        ..Params::paper()
    };
    let mut rng = Drbg::from_seed(1);
    let mut model = MykilModel::new(areas as usize, TreeConfig::binary(), &mut rng);
    mykil_baselines::populate(&mut model, n, &mut rng);

    let analytic = storage::mykil_member(&p).symmetric;
    let measured = model.member_storage_bytes();
    let ratio = measured as f64 / analytic as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "member storage measured={measured} analytic={analytic}"
    );

    let analytic_c = storage::mykil_controller(&p).symmetric;
    let measured_c = model.controller_storage_bytes();
    let ratio_c = measured_c as f64 / analytic_c as f64;
    assert!(
        (0.3..2.0).contains(&ratio_c),
        "controller storage measured={measured_c} analytic={analytic_c}"
    );
}

/// Full-protocol bandwidth accounting agrees in *shape* with the
/// baseline models: a leave in a 2-area deployment multicasts
/// logarithmically-sized key updates, not per-member unicasts.
#[test]
fn protocol_key_update_traffic_is_logarithmic() {
    let mut g = GroupBuilder::new(101).areas(1).build();
    let members: Vec<_> = (0..6).map(|i| g.register_member(i)).collect();
    g.settle();
    g.sim.stats_mut().reset();

    // Evict one member; the rekey must be one multicast whose size is
    // far below 6 * key-size * members.
    g.sim.partition(members[3], 5);
    g.run_for(Duration::from_secs(5));
    let ku = g.sim.stats().kind("key-update");
    assert!(ku.messages_sent >= 1);
    // Envelope-framed entries for a 6-member tree: well under 2 KB.
    assert!(
        ku.bytes_sent < 2048,
        "leave rekey too large: {} bytes",
        ku.bytes_sent
    );
}

/// Deterministic replay: the same seed produces byte-identical traffic
/// statistics across runs of the full protocol.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut g = GroupBuilder::new(500).areas(2).build();
        let a = g.register_member(1);
        let _b = g.register_member(2);
        g.settle();
        g.send_data(a, b"deterministic?");
        g.run_for(Duration::from_secs(2));
        let s = g.stats();
        (
            s.total_bytes_sent(),
            s.total_messages_sent(),
            s.kind("key-update").bytes_sent,
            g.sim.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

/// The crypto substrate, tree and protocol agree on key material:
/// a member's path keys decrypt exactly the envelopes the AC's tree
/// would produce for it.
#[test]
fn member_keys_match_controller_tree() {
    let mut g = GroupBuilder::new(102).areas(1).build();
    let m = g.register_member(1);
    g.settle();
    let client = g.member(m).client_id().unwrap();
    let tree = g.ac(0).tree();
    let mut path = Vec::new();
    tree.path_keys_into(mykil_tree::MemberId(client.0), &mut path)
        .unwrap();
    // Root (area key) agreement end to end.
    assert_eq!(
        g.member(m).current_area_key(),
        Some(path.last().unwrap().1.clone())
    );
    // Member stores at least the whole path.
    assert!(g.member(m).key_count() >= path.len());
}

/// The analytic latency model (Section V-D closed form) agrees with the
/// full simulator on the protocols' critical-path costs.
#[test]
fn latency_model_matches_simulation() {
    use mykil_analysis::latency::{JOIN_OPS, REJOIN_FAST_OPS, REJOIN_OPS};
    use mykil_bench::vd_latency;

    let sim = vd_latency();
    let check = |name: &str, predicted: f64, simulated: f64| {
        let ratio = predicted / simulated;
        assert!(
            (0.6..1.7).contains(&ratio),
            "{name}: predicted {predicted:.3}s vs simulated {simulated:.3}s"
        );
    };
    let p = mykil_analysis::latency::pentium3::RSA_PRIVATE_S;
    let q = mykil_analysis::latency::pentium3::RSA_PUBLIC_S;
    let h = mykil_analysis::latency::pentium3::HOP_S;
    check("join", JOIN_OPS.predict_seconds(p, q, h), sim.join_s);
    check("rejoin", REJOIN_OPS.predict_seconds(p, q, h), sim.rejoin_s);
    check(
        "rejoin_fast",
        REJOIN_FAST_OPS.predict_seconds(p, q, h),
        sim.rejoin_fast_s,
    );
}
