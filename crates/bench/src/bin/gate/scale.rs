//! The `scale` and `mobility` suites: the hybrid hot/cold million-member
//! scenarios, under the counting allocator and the scale invariant
//! checker.
//!
//! - `scale`: flash-crowd join + mass leave at 100k and 1M members.
//! - `mobility`: inter-area ticket-rejoin storms under a generated
//!   chaos fault plan against durable controllers, with the per-fault
//!   recovery envelope (mean/p50/p99 recovery micros, degraded-window
//!   bytes).
//!
//! Event counts, rekey bytes, move, fault and crash counts and
//! degraded-window bytes are bit-deterministic and gated exactly; peak
//! heap (a deterministic RSS proxy from the counting allocator) and the
//! virtual-clock recovery times are banded. A stall, an invariant
//! violation or a short move count aborts the run: the gate must not
//! publish numbers from a broken run.

use mykil::invariants::check_scale;
use mykil::scale::{ScaleConfig, ScaleGroup};
use mykil_bench::alloc_track::{peak_bytes, reset_peak};
use mykil_bench::harness::{dump_artifacts, Abort, Opts, Rounds, Row};
use mykil_net::Duration;
use std::time::Instant;

pub fn flash_crowd(opts: &Opts, rounds: &mut Rounds) -> Result<Vec<Row>, Abort> {
    let mut rows =
        vec![rounds.measure(|| run_flash_crowd("flash_crowd_100k", ScaleConfig::smoke_100k()))?];
    if !opts.smoke {
        rows.push(
            rounds.measure(|| run_flash_crowd("flash_crowd_1m", ScaleConfig::paper_million()))?,
        );
    }
    Ok(rows)
}

pub fn mobility(opts: &Opts, rounds: &mut Rounds) -> Result<Vec<Row>, Abort> {
    let dump_dir = opts.dump_dir.as_deref();
    let mut rows = vec![rounds.measure(|| run_storm(&smoke_storm(), dump_dir))?];
    if !opts.smoke {
        rows.push(rounds.measure(|| run_storm(&full_storm(), dump_dir))?);
    }
    Ok(rows)
}

/// One mobility-storm scenario's shape.
struct StormSpec {
    name: &'static str,
    cfg: ScaleConfig,
    moves: u64,
    episodes: usize,
    plan_seed: u64,
    horizon_ms: u64,
}

fn smoke_storm() -> StormSpec {
    StormSpec {
        name: "mobility_storm_100k",
        cfg: ScaleConfig {
            members: 100_000,
            areas: 100,
            ..ScaleConfig::mobility_million()
        },
        moves: 10_000,
        episodes: 12,
        plan_seed: 42,
        horizon_ms: 300,
    }
}

/// The acceptance scenario: 1M members / 1,000 areas, 100k inter-area
/// moves, 50+ injected faults (crashes, partitions, storage).
fn full_storm() -> StormSpec {
    StormSpec {
        name: "mobility_storm_1m",
        cfg: ScaleConfig::mobility_million(),
        moves: 100_000,
        episodes: 20,
        plan_seed: 42,
        horizon_ms: 2_000,
    }
}

/// The metrics both suites share.
fn scale_row(name: &'static str, cfg: &ScaleConfig, g: &ScaleGroup, wall: f64) -> Row {
    let events = g.sim.events_processed();
    Row::new(name)
        .exact("members", cfg.members as f64)
        .exact("areas", cfg.areas as f64)
        .exact("events", events as f64)
        .throughput("events_per_ref_s", events as f64 / wall)
        .banded("peak_heap_bytes", peak_bytes() as f64)
        .exact(
            "rekey_multicast_bytes",
            g.sim.stats().counter("scale-rekey-multicast-bytes") as f64,
        )
        .exact(
            "rekey_unicast_bytes",
            g.sim.stats().counter("scale-rekey-unicast-bytes") as f64,
        )
}

/// Drives one flash-crowd join + mass-leave to completion with the
/// invariant checker auditing both quiescent points.
fn run_flash_crowd(name: &'static str, cfg: ScaleConfig) -> Result<Row, Abort> {
    // Audits a quiescent point: the scale invariants plus the expected
    // live population.
    let audit = |g: &ScaleGroup, stage: &str, live: u64| {
        let violations = check_scale(g);
        match (violations.is_empty(), g.live_members()) {
            (true, n) if n == live => Ok(()),
            (_, n) => Err(Abort::Broken(format!(
                "{name}: after {stage}: {n} members live (expected {live}), violations: {violations:?}"
            ))),
        }
    };
    let stalled = |stall: mykil::scale::ScaleStall| Abort::Broken(format!("{name}: {stall}"));
    reset_peak();
    let t0 = Instant::now();
    let mut g = ScaleGroup::new(cfg);
    g.run_flash_crowd_join().map_err(stalled)?;
    audit(&g, "join", cfg.members)?;
    g.run_mass_leave().map_err(stalled)?;
    audit(&g, "mass leave", 0)?;
    Ok(scale_row(name, &cfg, &g, t0.elapsed().as_secs_f64()))
}

/// Per-area ledger dump: enough to diff a failing run against a
/// healthy one without re-running it.
fn dump_ledger(g: &ScaleGroup) -> String {
    let mut out = String::from(
        "# area live joins hot_leaves cold_leaves moves_out moves_in epoch multicast_bytes unicast_bytes\n",
    );
    for (area, c) in g.controllers().enumerate() {
        let t = c.cold().traffic();
        out.push_str(&format!(
            "{area} {} {} {} {} {} {} {} {} {}\n",
            c.live_members(),
            c.joins(),
            c.hot_leaves(),
            c.cold_leaves(),
            c.moves_out(),
            c.moves_in(),
            c.cold().epoch(),
            t.multicast_bytes,
            t.unicast_bytes,
        ));
    }
    out
}

/// Drives one seeded mobility storm under its generated fault plan,
/// audits the quiescent point, and collects the recovery envelope. A
/// stall, an invariant violation or a short move count writes the
/// plan and ledger to `dump_dir` and aborts.
fn run_storm(spec: &StormSpec, dump_dir: Option<&std::path::Path>) -> Result<Row, Abort> {
    reset_peak();
    let t0 = Instant::now();
    let mut g = ScaleGroup::new(spec.cfg);
    g.seed_cold_population();
    let plan = g.mobility_fault_plan(
        spec.episodes,
        spec.plan_seed,
        Duration::from_millis(spec.horizon_ms),
    );
    let broken = |g: &ScaleGroup, msg: String| {
        let artifacts = [
            ("plan.txt", plan.serialize()),
            ("ledger.txt", dump_ledger(g)),
        ];
        dump_artifacts(dump_dir, spec.name, &artifacts);
        Abort::Broken(format!("{}: {msg}", spec.name))
    };
    let report = match g.run_mobility_storm(spec.moves, &plan) {
        Ok(r) => r,
        Err(stall) => return Err(broken(&g, stall.to_string())),
    };
    let violations = check_scale(&g);
    if !violations.is_empty() {
        let list: Vec<String> = violations.iter().map(|v| format!("  {v}")).collect();
        return Err(broken(
            &g,
            format!("invariant violations after storm:\n{}", list.join("\n")),
        ));
    }
    if report.moves != spec.moves {
        return Err(broken(
            &g,
            format!("{} moves completed, expected {}", report.moves, spec.moves),
        ));
    }
    Ok(
        scale_row(spec.name, &spec.cfg, &g, t0.elapsed().as_secs_f64())
            .exact("moves", report.moves as f64)
            .exact("faults", report.faults_applied as f64)
            .exact("crashes", report.crashes as f64)
            .banded("recovery_mean_micros", report.mean_recovery_micros() as f64)
            .banded(
                "recovery_p50_micros",
                report.recovery_percentile_micros(0.50) as f64,
            )
            .banded(
                "recovery_p99_micros",
                report.recovery_percentile_micros(0.99) as f64,
            )
            .exact(
                "degraded_window_bytes",
                report.degraded_bytes_total() as f64,
            )
            .artifact("plan.txt", plan.serialize())
            .artifact("ledger.txt", dump_ledger(&g)),
    )
}
