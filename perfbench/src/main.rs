//! Whole-protocol benchmark for the Mykil reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload join_storm|rekey_fanout|failover --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of one untraced run.
//! `--trace 1` runs the workload untraced and then traced, checks that
//! both executed the same event sequence, and reports the per-layer
//! metrics: handler time split, simulator, traffic, waste ratios,
//! storage, and the layer kernels. The last line of standard output is
//! one JSON object; lines before it starting with `#` are notes.

mod calib;
mod kernels;
mod report;
mod stepper;
mod store;
mod workload;

use mykil_bench::alloc_track::{peak_bytes, reset_peak, CountingAllocator};
use report::{percentile, Metrics};
use std::process::ExitCode;
use std::time::Instant;
use workload::{final_check, run_timed, setup, workload, Kind, Outcome, Setup};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 60)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One untraced or traced pass: set-up, timed phase, final check.
pub struct Pass {
    pub setup: Setup,
    pub out: Outcome,
    /// Protocol wall seconds of the timed phase.
    pub wall_s: f64,
    pub normaliser: f64,
    pub kernel_per_s: f64,
    pub peak_bytes: u64,
    pub timed_events: u64,
    /// Traffic statistics at the start and end of the timed phase.
    pub stats_before: mykil_net::Stats,
    pub stats_after: mykil_net::Stats,
    pub inject: u64,
}

fn run_pass(args: &Args, mut s: Setup, store: Option<&store::Counters>, traced: bool) -> Pass {
    let inject = args.kind.inject_ticks(args.seconds);
    let mut w = workload(args.kind, args.seed, inject, &mut s);
    let mut out = Outcome::default();
    if let Some(c) = store {
        c.reset();
    }
    if traced {
        s.stepper.start_trace(&mut s.g);
    }
    let stats_before = s.g.stats().clone();
    let events0 = s.g.sim.events_processed();
    reset_peak();
    let (wall_s, calib) = run_timed(&mut s, w.as_mut(), inject, &mut out);
    let peak = peak_bytes();
    let stats_after = s.g.stats().clone();
    let timed_events = s.g.sim.events_processed() - events0;
    let tracer = s.stepper.tracer.take();
    final_check(&mut s, w.as_ref(), &mut out);
    s.stepper.tracer = tracer;
    Pass {
        normaliser: calib.normaliser(),
        kernel_per_s: calib.per_s(),
        setup: s,
        out,
        wall_s,
        peak_bytes: peak,
        timed_events,
        stats_before,
        stats_after,
        inject,
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (m, correct, attempted, failed) = if args.trace {
        report::layers(&args)
    } else {
        end_to_end(&args, started)
    };
    println!("{}", m.json(correct, attempted, failed));
    ExitCode::SUCCESS
}

/// `--trace 0`: median set-up time over several set-ups, then one
/// untraced timed phase on the last of them.
fn end_to_end(args: &Args, started: Instant) -> (Metrics, bool, u64, u64) {
    let mut setup_s = Vec::new();
    let mut last = None;
    let mut t0 = started;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let s = setup(args.kind, args.seed, None);
        setup_s.push(t0.elapsed().as_secs_f64() / s.calib.normaliser());
        last = Some(s);
        t0 = Instant::now();
    }
    let p = run_pass(args, last.expect("at least one set-up"), None, false);
    let o = &p.out;
    report::notes(args, &p);
    let mut m = Metrics::default();
    m.put("setup_s", percentile(&mut setup_s, 0.5), "s");
    m.put("ops_per_s", o.ops as f64 / p.wall_s * p.normaliser, "1/s");
    m.put(
        "ops_ok_frac",
        1.0 - o.failed as f64 / o.attempted.max(1) as f64,
        "frac",
    );
    m.put(
        "peak_heap_mb",
        p.peak_bytes as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    m.put(
        "wire_bytes_per_op",
        (p.stats_after.total_bytes_sent() - p.stats_before.total_bytes_sent()) as f64
            / o.ops.max(1) as f64,
        "B",
    );
    let mut lat: Vec<f64> = o.vlat_us.iter().map(|&us| us as f64 / 1000.0).collect();
    m.put(
        "join_vlat_mean_ms",
        lat.iter().sum::<f64>() / lat.len().max(1) as f64,
        "ms",
    );
    m.put("join_vlat_p90_ms", percentile(&mut lat, 0.9), "ms");
    let correct = report::outcome_correct(args.kind, o);
    (m, correct, o.attempted, o.failed)
}
