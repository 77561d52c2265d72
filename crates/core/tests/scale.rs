//! Hybrid hot/cold scale harness tests (ISSUEs 7 and 8).
//!
//! Small-scale tests drive the full join / mass-leave lifecycle and
//! cross-check every counter by hand; the mobility tests drive
//! inter-area ticket rejoins with chaos faults against durable
//! controllers; the 100k flash crowd is the CI smoke for the
//! million-member scenario the scale benchmark runs.

use mykil::invariants::check_scale;
use mykil::scale::{ScaleConfig, ScaleGroup};
use mykil_net::{
    Duration, FaultPlan, FaultSpec, FaultyStore, FileStore, NodeId, StableStore, Time,
};

/// A storm group whose controllers persist to real per-node
/// [`FileStore`] directories (wrapped in [`FaultyStore`] so the storm's
/// storage verbs still inject) instead of the in-memory `SimStore`.
fn file_backed_group(cfg: ScaleConfig, tag: &'static str) -> ScaleGroup {
    let root = mykil_net::scratch_dir(tag);
    ScaleGroup::new_with_storage(cfg, move |n: NodeId| {
        let dir = root.join(format!("node{}", n.index()));
        Box::new(FaultyStore::new(
            FileStore::open(&dir).expect("open file-backed store"),
        )) as Box<dyn StableStore>
    })
}

fn tiny_config() -> ScaleConfig {
    ScaleConfig {
        members: 200,
        areas: 4,
        hot_pool: 8,
        hot_leaves_per_pool: 2,
        cold_batch: 10,
        ..ScaleConfig::paper_million()
    }
}

/// The mobility analog of [`tiny_config`]: durable controllers, the
/// population seeded cold, storms driven explicitly.
fn storm_config() -> ScaleConfig {
    ScaleConfig {
        members: 200,
        areas: 4,
        hot_pool: 8,
        hot_leaves_per_pool: 2,
        cold_batch: 10,
        ..ScaleConfig::mobility_million()
    }
}

#[test]
fn flash_crowd_join_reaches_target_membership() {
    let mut g = ScaleGroup::new(tiny_config());
    g.run_flash_crowd_join()
        .unwrap_or_else(|stall| panic!("join phase stalled: {stall}"));

    assert_eq!(g.live_members(), 200);
    // Every area got its round-robin share and demoted it to cold.
    for ctrl in g.controllers() {
        assert_eq!(ctrl.joins(), 50);
        assert_eq!(ctrl.cold().cold_members(), 50);
        assert_eq!(ctrl.hot_members(), 0, "hot members left behind after demotion");
    }
    let violations = check_scale(&g);
    assert!(violations.is_empty(), "join-phase violations: {violations:?}");

    // Join rekeys were charged: bytes flowed into the stats ledger.
    assert!(g.sim.stats().counter("scale-rekey-multicast-bytes") > 0);
    assert!(g.sim.stats().counter("scale-rekey-unicast-bytes") > 0);
    assert_eq!(g.sim.stats().counter("scale-joins"), 200);
}

#[test]
fn mass_leave_drains_everyone_and_rotates_epochs() {
    let mut g = ScaleGroup::new(tiny_config());
    g.run_flash_crowd_join()
        .unwrap_or_else(|stall| panic!("join phase stalled: {stall}"));
    let join_multicast = g.sim.stats().counter("scale-rekey-multicast-bytes");
    g.run_mass_leave()
        .unwrap_or_else(|stall| panic!("leave phase stalled: {stall}"));

    assert_eq!(g.live_members(), 0, "members left behind after mass leave");
    let mut hot_leaves = 0;
    let mut cold_leaves = 0;
    for ctrl in g.controllers() {
        hot_leaves += ctrl.hot_leaves();
        cold_leaves += ctrl.cold_leaves();
        assert_eq!(ctrl.hot_members(), 0);
        assert_eq!(ctrl.cold().cold_members(), 0);
        // Forward-secrecy analog: every departure batch rotated the key.
        assert_eq!(ctrl.cold().epoch(), ctrl.cold().leave_batches());
        assert!(ctrl.cold().epoch() > ctrl.hot_leaves());
    }
    // 8 pool nodes x 2 hot leaves each; the rest drained cold.
    assert_eq!(hot_leaves, 16);
    assert_eq!(cold_leaves, 200 - 16);
    assert_eq!(g.sim.stats().counter("scale-hot-leaves"), 16);
    assert_eq!(g.sim.stats().counter("scale-cold-leaves"), 200 - 16);
    // Leave rekeys added multicast bytes on top of the join phase.
    assert!(g.sim.stats().counter("scale-rekey-multicast-bytes") > join_multicast);

    let violations = check_scale(&g);
    assert!(violations.is_empty(), "leave-phase violations: {violations:?}");
}

#[test]
fn scale_run_is_deterministic() {
    let run = || {
        let mut g = ScaleGroup::new(tiny_config());
        let _ = g.run_flash_crowd_join();
        let _ = g.run_mass_leave();
        (
            g.sim.events_processed(),
            g.sim.now(),
            g.sim.stats().counter("scale-rekey-multicast-bytes"),
            g.sim.stats().counter("scale-rekey-unicast-bytes"),
        )
    };
    assert_eq!(run(), run(), "identical configs must replay identically");
}

#[test]
fn ledger_drift_is_detected() {
    let mut g = ScaleGroup::new(tiny_config());
    g.run_flash_crowd_join()
        .unwrap_or_else(|stall| panic!("join phase stalled: {stall}"));
    // Corrupt one ledger: the stats counter drifts from the replay.
    g.sim.stats_mut().bump("scale-rekey-multicast-bytes", 1);
    let violations = check_scale(&g);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            mykil::invariants::InvariantViolation::ScaleLedgerDrift {
                counter: "scale-rekey-multicast-bytes",
                ..
            }
        )),
        "corrupted ledger not flagged: {violations:?}"
    );
}

#[test]
fn mobility_storm_moves_members_between_areas() {
    let mut g = ScaleGroup::new(storm_config());
    g.seed_cold_population();
    assert_eq!(g.live_members(), 200);
    let report = g
        .run_mobility_storm(40, &FaultPlan::new())
        .unwrap_or_else(|stall| panic!("storm stalled: {stall}"));

    assert_eq!(report.moves, 40);
    assert_eq!(report.faults_applied, 0);
    assert!(report.recoveries.is_empty());
    // Moves preserve the population; they only relocate it.
    assert_eq!(g.live_members(), 200);
    let moves_out: u64 = g.controllers().map(|c| c.moves_out()).sum();
    let moves_in: u64 = g.controllers().map(|c| c.moves_in()).sum();
    assert_eq!(moves_out, 40);
    assert_eq!(moves_in, 40);
    assert_eq!(g.sim.stats().counter("scale-moves-out"), 40);
    assert_eq!(g.sim.stats().counter("scale-moves-in"), 40);
    // Every move-out rotated the source area's key (forward secrecy
    // across areas: the mover must not keep its old area key).
    for ctrl in g.controllers() {
        assert!(ctrl.cold().epoch() >= ctrl.moves_out());
    }
    let violations = check_scale(&g);
    assert!(violations.is_empty(), "storm violations: {violations:?}");
}

#[test]
fn mobility_storm_survives_chaos_faults() {
    let mut g = ScaleGroup::new(storm_config());
    g.seed_cold_population();
    let plan = g.mobility_fault_plan(9, 11, Duration::from_millis(2500));
    let planned_crashes = plan
        .faults()
        .iter()
        .filter(|tf| matches!(tf.fault, FaultSpec::Crash(_)))
        .count() as u64;
    assert!(planned_crashes >= 1, "plan must crash at least one controller");

    let report = g
        .run_mobility_storm(60, &plan)
        .unwrap_or_else(|stall| panic!("chaos storm stalled: {stall}"));

    assert_eq!(report.moves, 60);
    assert_eq!(report.faults_applied, plan.faults().len() as u64);
    assert_eq!(report.crashes, planned_crashes);
    // Every crash produced a measured recovery, and time moved forward.
    assert_eq!(report.recoveries.len() as u64, report.crashes);
    for r in &report.recoveries {
        assert!(r.recovery_micros > 0, "zero-width recovery window: {r:?}");
    }
    assert!(report.recovery_percentile_micros(0.99) >= report.recovery_percentile_micros(0.50));
    // Post-fault state passes the full invariant battery: conservation
    // with moves, re-convergence, journal/directory agreement, and the
    // byte-exact three-way ledger.
    assert_eq!(g.live_members(), 200);
    let violations = check_scale(&g);
    assert!(violations.is_empty(), "post-chaos violations: {violations:?}");
}

#[test]
fn mobility_storm_is_deterministic() {
    let run = || {
        let mut g = ScaleGroup::new(storm_config());
        g.seed_cold_population();
        let plan = g.mobility_fault_plan(6, 3, Duration::from_millis(2000));
        let report = g
            .run_mobility_storm(32, &plan)
            .unwrap_or_else(|stall| panic!("storm stalled: {stall}"));
        (
            g.sim.events_processed(),
            g.sim.now(),
            g.sim.stats().counter("scale-rekey-multicast-bytes"),
            g.sim.stats().counter("scale-rekey-unicast-bytes"),
            report.recoveries,
        )
    };
    assert_eq!(run(), run(), "identical storms must replay identically");
}

fn storage_fault_storm(mut g: ScaleGroup) {
    g.seed_cold_population();
    let node = g.controller_ids()[1];
    let mut plan = FaultPlan::new();
    // A torn-write window swallowed by a crash, healed after restart…
    plan.push(Time::from_millis(80), FaultSpec::StorageTorn(node));
    plan.push(Time::from_millis(200), FaultSpec::Crash(node));
    plan.push(Time::from_millis(400), FaultSpec::Restart(node));
    plan.push(Time::from_millis(405), FaultSpec::StorageHeal(node));
    // …then bit-rot in the newest checkpoint before a second crash.
    plan.push(Time::from_millis(600), FaultSpec::CorruptCheckpoint(node));
    plan.push(Time::from_millis(700), FaultSpec::Crash(node));
    plan.push(Time::from_millis(900), FaultSpec::Restart(node));

    let report = g
        .run_mobility_storm(48, &plan)
        .unwrap_or_else(|stall| panic!("storage-fault storm stalled: {stall}"));

    assert_eq!(report.moves, 48);
    assert_eq!(report.crashes, 2);
    assert_eq!(report.storage_faults, 2);
    assert_eq!(report.recoveries.len(), 2);
    let ctrl = g.controllers().nth(1).expect("area 1 exists");
    assert!(ctrl.converged());
    assert_eq!(ctrl.recovery_samples().len(), 2);
    // The resynced journal and the directory replica agree, the ledger
    // is byte-exact: nothing the faults ate was actually lost.
    let violations = check_scale(&g);
    assert!(violations.is_empty(), "storage-fault violations: {violations:?}");
}

#[test]
fn storage_faults_recover_through_directory_resync() {
    storage_fault_storm(ScaleGroup::new(storm_config()));
}

#[test]
fn storage_faults_recover_through_directory_resync_file_backed() {
    storage_fault_storm(file_backed_group(storm_config(), "scale-storage-faults"));
}

/// The mobility + durability matrix on real files: the same chaos storm
/// recovers identically whether controllers persist to `SimStore` or to
/// a `FileStore` directory — the byte ledger, the recovery count and
/// the surviving membership all match the sim-backed run exactly.
#[test]
fn mobility_storm_on_file_backed_storage_matches_sim() {
    let run = |mut g: ScaleGroup| {
        g.seed_cold_population();
        let plan = g.mobility_fault_plan(9, 11, Duration::from_millis(2500));
        let report = g
            .run_mobility_storm(60, &plan)
            .unwrap_or_else(|stall| panic!("file-backed storm stalled: {stall}"));
        let violations = check_scale(&g);
        assert!(violations.is_empty(), "violations: {violations:?}");
        (
            report.moves,
            report.crashes,
            report.recoveries.len(),
            g.live_members(),
            g.sim.stats().counter("scale-rekey-multicast-bytes"),
            g.sim.stats().counter("scale-rekey-unicast-bytes"),
        )
    };
    let sim = run(ScaleGroup::new(storm_config()));
    let file = run(file_backed_group(storm_config(), "scale-storm-file"));
    assert_eq!(sim, file, "file-backed storm diverged from the sim-backed run");
}

#[test]
fn unrecovered_crash_stalls_with_diagnostic_residue() {
    let mut g = ScaleGroup::new(storm_config());
    g.seed_cold_population();
    let node = g.controller_ids()[0];
    let mut plan = FaultPlan::new();
    // Crash area 0's controller mid-handshake and never restart it.
    plan.push(Time::from_micros(500), FaultSpec::Crash(node));

    let stall = match g.run_mobility_storm(40, &plan) {
        Ok(report) => panic!("storm with a dead controller completed: {report:?}"),
        Err(stall) => stall,
    };
    assert_eq!(stall.phase, "mobility storm");
    assert!(stall.events_executed > 0);
    assert!(stall.members_stuck > 0, "no stuck moves reported");
    let dead = stall
        .residue
        .iter()
        .find(|r| r.area == 0)
        .expect("area 0 missing from residue");
    assert!(dead.crashed, "residue must flag the crashed controller");
    // The Display form carries the numbers a soak log needs.
    let text = stall.to_string();
    assert!(text.contains("mobility storm"), "bad stall text: {text}");
    assert!(text.contains("area 0"), "bad stall text: {text}");
}

/// The CI smoke for the acceptance scenario: 100,000 members across
/// 100 areas join as a flash crowd and then all leave, with the
/// invariant checker auditing both quiescent points.
#[test]
fn flash_crowd_100k_smoke() {
    let mut g = ScaleGroup::new(ScaleConfig::smoke_100k());
    g.run_flash_crowd_join()
        .unwrap_or_else(|stall| panic!("100k join stalled: {stall}"));
    assert_eq!(g.live_members(), 100_000);
    let violations = check_scale(&g);
    assert!(violations.is_empty(), "100k join violations: {violations:?}");

    g.run_mass_leave()
        .unwrap_or_else(|stall| panic!("100k leave stalled: {stall}"));
    assert_eq!(g.live_members(), 0);
    let violations = check_scale(&g);
    assert!(violations.is_empty(), "100k leave violations: {violations:?}");
}

/// A smoke-sized mobility storm with a generated fault plan: the CI
/// analog of the million-member acceptance run in `gate mobility`.
#[test]
fn mobility_storm_10k_smoke() {
    let mut g = ScaleGroup::new(ScaleConfig {
        members: 10_000,
        areas: 20,
        hot_pool: 16,
        ..ScaleConfig::mobility_million()
    });
    g.seed_cold_population();
    let plan = g.mobility_fault_plan(12, 5, Duration::from_millis(4000));
    let report = g
        .run_mobility_storm(1_000, &plan)
        .unwrap_or_else(|stall| panic!("10k storm stalled: {stall}"));
    assert_eq!(report.moves, 1_000);
    assert!(report.crashes >= 1);
    assert_eq!(report.recoveries.len() as u64, report.crashes);
    assert_eq!(g.live_members(), 10_000);
    let violations = check_scale(&g);
    assert!(violations.is_empty(), "10k storm violations: {violations:?}");
}
