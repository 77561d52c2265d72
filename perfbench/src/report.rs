//! Result assembly: the JSON line, notes, outcome verdicts, and the
//! traced (`--trace 1`) per-layer report.

use crate::stepper::{Role, Span};
use crate::store::Counters;
use crate::workload::{setup, Kind, Outcome};
use crate::{kernels, run_pass, Args, Pass};
use mykil_net::Stats;
use std::fmt::Write as _;
use std::io::Write as _;

/// Handler (role, kind) pairs reported on their own; the rest of the
/// timed phase is `handler.other.ms`.
const HANDLERS: [(Role, &str); 19] = [
    (Role::Rs, "join"),
    (Role::Ac, "join"),
    (Role::Member, "join"),
    (Role::Ac, "rejoin"),
    (Role::Member, "rejoin"),
    (Role::Ac, "leave"),
    (Role::Ac, "data"),
    (Role::Member, "data"),
    (Role::Ac, "timer"),
    (Role::Member, "timer"),
    (Role::Member, "alive"),
    (Role::Ac, "key-unicast"),
    (Role::Member, "key-unicast"),
    (Role::Member, "key-update"),
    (Role::Backup, "state-sync"),
    (Role::Backup, "key-unicast"),
    (Role::Backup, "rejoin"),
    (Role::Backup, "leave"),
    (Role::Backup, "timer"),
];

/// Traffic kinds reported as `net.msgs.<kind>` / `net.bytes.<kind>`.
const NET_KINDS: [&str; 9] = [
    "join",
    "rejoin",
    "leave",
    "key-update",
    "key-unicast",
    "data",
    "alive",
    "replication",
    "state-sync",
];

/// Traced steps and set-up must cover at least this share of the
/// traced timed phase.
const MIN_COVERAGE: f64 = 0.9;

#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for no samples.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Prints a pass's shape, sample counts and itemised outcome as notes.
pub fn notes(args: &Args, p: &Pass) {
    let o = &p.out;
    println!(
        "# workload={} seed={} seconds={} shape: {} inject_ticks={} ops={} attempted={} failed={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.kind.shape(),
        p.inject,
        o.ops,
        o.attempted,
        o.failed
    );
    let mut lat: Vec<f64> = o.vlat_us.iter().map(|&us| us as f64 / 1e3).collect();
    println!(
        "# timed: wall_s={:.3} events={} kernel_per_s={:.1} latency_samples={} latency_p50_ms={:.3} takeover_cycles={}",
        p.wall_s,
        p.timed_events,
        p.kernel_per_s,
        lat.len(),
        percentile(&mut lat, 0.5),
        o.takeover_us.len()
    );
    let classes = o
        .classes
        .iter()
        .map(|(k, (n, f))| format!("{k}={n}/failed={f}"));
    let counts = o.counts.iter().map(|(k, v)| format!("{k}={v}"));
    println!(
        "# outcome: {}",
        classes.chain(counts).collect::<Vec<_>>().join(" ")
    );
    for u in o.unexpected.iter().take(5) {
        println!("# unexpected: {u}");
    }
}

/// Whether a pass's outcome holds only the recorded known defects.
/// join_storm must be clean.
pub fn outcome_correct(kind: Kind, o: &Outcome) -> bool {
    let clean = o.unexpected.is_empty() && o.ops > 0;
    match kind {
        Kind::JoinStorm => clean && o.failed == 0,
        Kind::RekeyFanout | Kind::Failover => clean,
    }
}

/// Whether two passes executed the same event sequence: the same
/// number of events and identical traffic and counter statistics.
fn same_run(a: &Pass, b: &Pass) -> bool {
    let (sa, sb) = (a.setup.g.stats(), b.setup.g.stats());
    a.setup.g.sim.events_processed() == b.setup.g.sim.events_processed()
        && sa.kinds().eq(sb.kinds())
        && sa.counters().eq(sb.counters())
}

/// Timed-phase delta of a traffic kind: (messages, bytes) sent.
fn kind_delta(before: &Stats, after: &Stats, kind: &str) -> (u64, u64) {
    let (a, b) = (before.kind(kind), after.kind(kind));
    (
        a.messages_sent.abs_diff(b.messages_sent),
        a.bytes_sent.abs_diff(b.bytes_sent),
    )
}

/// `--trace 1`: an untraced and a traced pass of the same workload and
/// seed, then the layer kernels.
pub fn layers(args: &Args) -> (Metrics, bool, u64, u64) {
    let plain = run_pass(args, setup(args.kind, args.seed, None), None, false);
    notes(args, &plain);
    let counters = Counters::default();
    let traced_setup = setup(args.kind, args.seed, Some(counters.factory()));
    let traced = run_pass(args, traced_setup, Some(&counters), true);

    let same = same_run(&plain, &traced)
        && plain.out.attempted == traced.out.attempted
        && plain.out.failed == traced.out.failed;
    let tracer = traced.setup.stepper.tracer.as_ref().expect("traced pass");
    let totals = tracer.totals();
    let span_ns: u64 = totals.values().map(|(ns, _)| ns).sum();
    let traced_ms = traced.wall_s * 1e3;
    let coverage = span_ns as f64 / 1e6 / traced_ms;
    println!(
        "# trace: same_sequence={same} events={} spans={} coverage={coverage:.3}",
        traced.setup.g.sim.events_processed(),
        tracer.spans.len()
    );
    if let Err(e) = write_spans(args, &tracer.spans) {
        eprintln!("perfbench: could not write spans: {e}");
    }

    let mut m = Metrics::default();
    let s = &plain.setup;
    m.put("setup.keygen_s", s.keygen_s, "s");
    m.put("setup.build_s", s.build_s, "s");
    m.put("setup.settle_s", s.settle_s, "s");

    let mut named_ms = 0.0;
    for (role, kind) in HANDLERS {
        let (ns, n) = totals.get(&(role, kind)).copied().unwrap_or((0, 0));
        let ms = ns as f64 / 1e6;
        named_ms += ms;
        m.put(&format!("handler.{}.{kind}.ms", role.name()), ms, "ms");
        m.put(
            &format!("handler.{}.{kind}.n", role.name()),
            n as f64,
            "count",
        );
    }
    m.put("handler.other.ms", traced_ms - named_ms, "ms");

    let mut step_us: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.kind != "inject")
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    m.put("sim.events", plain.timed_events as f64, "count");
    m.put(
        "sim.events_per_s",
        plain.timed_events as f64 / plain.wall_s,
        "1/s",
    );
    m.put("sim.step_us_p50", percentile(&mut step_us, 0.5), "us");
    m.put("sim.step_us_p99", percentile(&mut step_us, 0.99), "us");
    m.put("sim.trace_overhead", traced.wall_s / plain.wall_s, "ratio");
    m.put("sim.timed_wall_s", plain.wall_s, "s");

    let (before, after) = (&plain.stats_before, &plain.stats_after);
    for kind in NET_KINDS {
        let (msgs, bytes) = kind_delta(before, after, kind);
        m.put(&format!("net.msgs.{kind}"), msgs as f64, "count");
        m.put(&format!("net.bytes.{kind}"), bytes as f64, "B");
    }
    let refreshes = after
        .counter("member-key-refreshes")
        .saturating_sub(before.counter("member-key-refreshes"));
    let (rekeys, _) = kind_delta(before, after, "key-update");
    m.put(
        "member.refresh_per_rekey",
        refreshes as f64 / rekeys.max(1) as f64,
        "ratio",
    );
    let g = &plain.setup.g;
    let (mut fails, mut frames) = (0u64, 0u64);
    for &n in &g.members {
        let mem = g.member(n);
        fails += mem.decrypt_failures;
        frames += mem.received.len() as u64 + mem.decrypt_failures;
    }
    m.put(
        "member.data_fail_frac",
        fails as f64 / frames.max(1) as f64,
        "frac",
    );

    for (name, v, unit) in counters.metrics() {
        m.put(name, v, unit);
    }
    let mut takeover: Vec<f64> = plain
        .out
        .takeover_us
        .iter()
        .map(|&us| us as f64 / 1e3)
        .collect();
    m.put(
        "failover.takeover_vlat_ms",
        percentile(&mut takeover, 0.5),
        "ms",
    );

    for (name, v, unit) in kernels::run() {
        m.put(&name, v, unit);
    }
    m.put("calib.kernel_per_s", plain.kernel_per_s, "1/s");

    let correct = same && coverage >= MIN_COVERAGE && outcome_correct(args.kind, &plain.out);
    (m, correct, plain.out.attempted, plain.out.failed)
}

/// Writes the traced run's spans as TSV under `perfbench/out/`
/// (`member` is `-` for steps without a member endpoint).
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(dir.join(format!("spans-{}.tsv", args.kind.name())))?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "start_ns\tdur_ns\trole\tkind\tmember")?;
    for s in spans {
        let (start, dur, role, kind) = (s.start_ns, s.dur_ns, s.role.name(), s.kind);
        match s.req {
            u32::MAX => writeln!(w, "{start}\t{dur}\t{role}\t{kind}\t-")?,
            req => writeln!(w, "{start}\t{dur}\t{role}\t{kind}\t{req}")?,
        }
    }
    w.flush()
}
