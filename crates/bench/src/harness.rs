//! The perf-gate harness: one row type, one JSON format, one `check`,
//! one command line and one failure-artifact dump for the three
//! committed baselines (`BENCH_rekey.json`, `BENCH_scale.json`,
//! `BENCH_mobility.json`). The `gate` binary supplies the workloads.
//!
//! A row is a workload name plus named metrics, each gated by exactly
//! one [`Policy`]. Every workload runs [`ROUNDS`] times; the
//! normalising kernel ([`crate::calib`]) is sampled immediately before
//! and after each round, throughput is reported in reference-host
//! units, and the rounds fold into one row: exact metrics must agree
//! across rounds, banded metrics take the worst round, throughput the
//! median round.

use crate::calib::{Kernel, MIN_SAMPLE, REFERENCE_SLICES_PER_S};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Measured rounds per workload.
pub const ROUNDS: usize = 5;

/// Allowed rise of a [`Policy::BandedUp`] metric over its baseline.
pub const BANDED: f64 = 0.15;

/// How one metric is gated against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Bit-deterministic for the fixed seeds: any change is a
    /// behaviour change. Must also agree across rounds.
    Exact,
    /// Lower is better; fails above `base × (1 + BANDED)`.
    BandedUp,
    /// Kernel-normalised rate; fails below `base × (1 − band)` with
    /// the suite's [`Suite::throughput_band`].
    ThroughputDown,
}

/// One named metric of a row.
#[derive(Debug)]
pub struct Metric {
    pub key: &'static str,
    pub value: f64,
    pub policy: Policy,
}

/// One workload's measurements.
#[derive(Debug)]
pub struct Row {
    pub name: &'static str,
    pub metrics: Vec<Metric>,
    /// `(file suffix, body)` pairs written to `--dump-dir` when the
    /// check fails, so a failing run can be replayed and diffed.
    pub artifacts: Vec<(&'static str, String)>,
}

impl Row {
    pub fn new(name: &'static str) -> Row {
        Row {
            name,
            metrics: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    fn with(mut self, key: &'static str, value: f64, policy: Policy) -> Row {
        // Quantised to the written precision, so a row read back from
        // its own JSON compares equal.
        let value = (value * 1000.0).round() / 1000.0;
        self.metrics.push(Metric { key, value, policy });
        self
    }

    pub fn exact(self, key: &'static str, value: f64) -> Row {
        self.with(key, value, Policy::Exact)
    }

    pub fn banded(self, key: &'static str, value: f64) -> Row {
        self.with(key, value, Policy::BandedUp)
    }

    /// A raw per-second rate; the harness normalises it per round.
    pub fn throughput(self, key: &'static str, value: f64) -> Row {
        self.with(key, value, Policy::ThroughputDown)
    }

    pub fn artifact(mut self, suffix: &'static str, body: String) -> Row {
        self.artifacts.push((suffix, body));
        self
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.key == key).map(|m| m.value)
    }
}

/// The three committed baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Rekey hot path on both tree backends, wire codec, RSA-2048.
    Rekey,
    /// Million-member flash-crowd join and mass leave.
    Scale,
    /// Million-member mobility storm under a chaos fault plan.
    Mobility,
}

impl Suite {
    pub fn name(self) -> &'static str {
        match self {
            Suite::Rekey => "rekey",
            Suite::Scale => "scale",
            Suite::Mobility => "mobility",
        }
    }

    /// Allowed fall of a kernel-normalised rate below its baseline.
    /// The rekey rows are short single-threaded loops and get the
    /// wider band; the scale scenarios run long enough for 15%.
    pub fn throughput_band(self) -> f64 {
        match self {
            Suite::Rekey => 0.30,
            Suite::Scale | Suite::Mobility => 0.15,
        }
    }
}

pub const USAGE: &str = "\
usage: gate <rekey|scale|mobility> [options]
  --smoke            drop the 1M-member scenarios (bounded CI wall time)
  --write            rewrite the suite's BENCH_<suite>.json
  --check <path>     compare against a baseline; exit 1 on regression
  --out <path>       also write the fresh JSON (CI artifact)
  --dump-dir <dir>   on failure, write each row's artifacts there
exit: 0 pass, 1 regression, 2 usage error or broken run";

/// Parsed command line.
#[derive(Debug)]
pub struct Opts {
    pub suite: Suite,
    pub smoke: bool,
    /// Where `--write` puts the fresh baseline.
    pub write: Option<PathBuf>,
    pub check: Option<PathBuf>,
    pub out: Option<PathBuf>,
    pub dump_dir: Option<PathBuf>,
}

/// Parses `gate`'s arguments (without the program name). Any error is
/// a usage error: exit 2.
pub fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut it = args.iter();
    let name = it.next().ok_or("missing suite")?;
    let suite = [Suite::Rekey, Suite::Scale, Suite::Mobility]
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| format!("unknown suite: {name}"))?;
    let mut opts = Opts {
        suite,
        smoke: false,
        write: None,
        check: None,
        out: None,
        dump_dir: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || match it.next() {
            Some(v) if !v.starts_with("--") => Ok(Some(PathBuf::from(v))),
            _ => Err(format!("{flag} needs a value")),
        };
        match flag.as_str() {
            "--smoke" => opts.smoke = true,
            "--write" => opts.write = Some(format!("BENCH_{name}.json").into()),
            "--check" => opts.check = value()?,
            "--out" => opts.out = value()?,
            "--dump-dir" => opts.dump_dir = value()?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.smoke && opts.write.is_some() {
        return Err("--write with --smoke would drop the full-scale rows from the baseline".into());
    }
    Ok(opts)
}

/// Why a suite stopped before producing rows.
#[derive(Debug)]
pub enum Abort {
    /// The run itself is broken (stall, invariant violation, rounds
    /// disagreeing): no numbers may be published. Exit 2.
    Broken(String),
    /// A structural property the gate guarantees was lost. Exit 1.
    Regressed(String),
}

/// Runs workloads round by round against the normalising kernel.
pub struct Rounds {
    kernel: Kernel,
}

impl Rounds {
    /// Runs `workload` [`ROUNDS`] times, each bracketed by kernel
    /// samples, normalises its throughput to the reference host and
    /// folds the rounds with [`fold_rounds`].
    pub fn measure(
        &mut self,
        mut workload: impl FnMut() -> Result<Row, Abort>,
    ) -> Result<Row, Abort> {
        let mut runs = Vec::with_capacity(ROUNDS);
        let mut span = MIN_SAMPLE;
        for _ in 0..ROUNDS {
            let (n0, t0) = self.kernel.sample(span);
            let start = Instant::now();
            let mut row = workload()?;
            // A shared host's speed changes many times a second. Kernel
            // samples as long as the round itself, on both sides of it,
            // average over those phases much as the round did; a short
            // fixed sample catches one phase and adds noise instead.
            span = MIN_SAMPLE.max(start.elapsed());
            let (n1, t1) = self.kernel.sample(span);
            let rate = f64::from(n0 + n1) / (t0 + t1).as_secs_f64();
            for m in row
                .metrics
                .iter_mut()
                .filter(|m| m.policy == Policy::ThroughputDown)
            {
                m.value = (m.value * REFERENCE_SLICES_PER_S / rate).round();
            }
            runs.push(row);
        }
        fold_rounds(runs).map_err(Abort::Broken)
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Folds one workload's rounds into one row: exact metrics must be
/// identical in every round, banded metrics take the maximum, and
/// throughput the median. Artifacts come from the last round.
pub fn fold_rounds(mut runs: Vec<Row>) -> Result<Row, String> {
    let Some(mut out) = runs.pop() else {
        return Err("no rounds".into());
    };
    for (i, m) in out.metrics.iter_mut().enumerate() {
        let mut values = vec![m.value];
        for run in &runs {
            match run.metrics.get(i) {
                Some(r) if r.key == m.key => values.push(r.value),
                _ => return Err(format!("{}: rounds report different metrics", out.name)),
            }
        }
        m.value = match m.policy {
            Policy::Exact => {
                if values.iter().any(|&v| v != m.value) {
                    return Err(format!(
                        "{}: {} differs across rounds: {values:?}",
                        out.name, m.key
                    ));
                }
                m.value
            }
            Policy::BandedUp => values.iter().copied().fold(f64::MIN, f64::max),
            Policy::ThroughputDown => median(&values),
        };
    }
    Ok(out)
}

fn fmt_num(v: f64) -> String {
    let s = format!("{v:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_string()
}

/// Renders rows as the shared baseline format.
pub fn render_json(suite: Suite, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 2,\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", suite.name()));
    out.push_str(&format!(
        "  \"description\": \"throughput in reference-host units (calib.rs); refresh with: cargo run --release -p mykil-bench --bin gate -- {} --write\",\n",
        suite.name()
    ));
    out.push_str("  \"rows\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.key, fmt_num(m.value)))
            .collect();
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}\": {{ {} }}{sep}\n",
            row.name,
            fields.join(", ")
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// A baseline read back: row name → metric key → value.
pub type Baseline = BTreeMap<String, BTreeMap<String, f64>>;

/// Reads back what [`render_json`] writes: a flat scan for lines of
/// the form `"name": { "key": number, ... }`.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut rows = Baseline::new();
    for line in text.lines() {
        let Some((name, body)) = line.trim().split_once(": {") else {
            continue;
        };
        let Some(body) = body.trim_end_matches(',').strip_suffix('}') else {
            continue;
        };
        let mut metrics = BTreeMap::new();
        for field in body.split(',') {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| format!("{name}: bad field {field}"))?;
            let value = value
                .trim()
                .parse()
                .map_err(|_| format!("{name}: bad number in {field}"))?;
            metrics.insert(key.trim().trim_matches('"').to_string(), value);
        }
        rows.insert(name.trim_matches('"').to_string(), metrics);
    }
    if rows.is_empty() {
        return Err("no rows".into());
    }
    Ok(rows)
}

/// Compares fresh rows against a baseline; returns one line per
/// failure. A row or metric absent from the baseline fails: a gate
/// that silently skips what it cannot find guards nothing.
pub fn check(baseline: &Baseline, rows: &[Row], suite: Suite) -> Vec<String> {
    let mut bad = Vec::new();
    for row in rows {
        let Some(base_row) = baseline.get(row.name) else {
            bad.push(format!("{}: missing from baseline", row.name));
            continue;
        };
        for m in &row.metrics {
            let what = format!("{}: {}", row.name, m.key);
            let Some(&base) = base_row.get(m.key) else {
                bad.push(format!("{what}: missing from baseline"));
                continue;
            };
            let fresh = m.value;
            match m.policy {
                Policy::Exact if fresh != base => {
                    bad.push(format!(
                        "{what} changed (exact): baseline {base}, fresh {fresh}"
                    ));
                }
                Policy::BandedUp if fresh > base * (1.0 + BANDED) => bad.push(format!(
                    "{what} rose beyond {:.0}%: baseline {base}, fresh {fresh}",
                    BANDED * 100.0
                )),
                Policy::ThroughputDown if fresh < base * (1.0 - suite.throughput_band()) => bad
                    .push(format!(
                        "{what} fell beyond {:.0}%: baseline {base}, fresh {fresh}",
                        suite.throughput_band() * 100.0
                    )),
                _ => {}
            }
        }
    }
    bad
}

/// Writes `artifacts` to `dir/<name>.<suffix>`; no-op without a dir.
pub fn dump_artifacts(dir: Option<&Path>, name: &str, artifacts: &[(&'static str, String)]) {
    let Some(dir) = dir else { return };
    if artifacts.is_empty() {
        return;
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create dump dir {}: {e}", dir.display());
        return;
    }
    for (suffix, body) in artifacts {
        let path = dir.join(format!("{name}.{suffix}"));
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("wrote failure artifact {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

/// The whole gate: reads the baseline, runs the suite, prints the
/// rows, writes `--out`/`--write`, checks. Returns the exit code.
pub fn run(opts: &Opts, suite: impl FnOnce(&Opts, &mut Rounds) -> Result<Vec<Row>, Abort>) -> i32 {
    // The baseline is read before anything is written, so `--write
    // --check` on one file compares against the committed numbers and
    // not against the fresh run.
    let baseline = match &opts.check {
        Some(path) => {
            match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| parse_baseline(&text))
            {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("cannot read baseline {}: {e}", path.display());
                    return 2;
                }
            }
        }
        None => None,
    };

    let mut rounds = Rounds {
        kernel: Kernel::default(),
    };
    let rows = match suite(opts, &mut rounds) {
        Ok(rows) => rows,
        Err(Abort::Broken(msg)) => {
            eprintln!("{msg}");
            return 2;
        }
        Err(Abort::Regressed(msg)) => {
            eprintln!("{msg}");
            return 1;
        }
    };

    let json = render_json(opts.suite, &rows);
    print!("{json}");
    for path in [&opts.out, &opts.write].into_iter().flatten() {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
        println!("wrote {}", path.display());
    }

    let Some(baseline) = baseline else { return 0 };
    let bad = check(&baseline, &rows, opts.suite);
    if bad.is_empty() {
        println!("{} gate: PASS", opts.suite.name());
        return 0;
    }
    println!("{} gate: FAIL", opts.suite.name());
    for line in &bad {
        println!("  {line}");
    }
    for row in &rows {
        dump_artifacts(opts.dump_dir.as_deref(), row.name, &row.artifacts);
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn row(name: &'static str, exact: f64, banded: f64, rate: f64) -> Row {
        Row::new(name)
            .exact("events", exact)
            .banded("peak_heap_bytes", banded)
            .throughput("events_per_ref_s", rate)
    }

    fn baseline_of(rows: &[Row]) -> Baseline {
        parse_baseline(&render_json(Suite::Scale, rows)).expect("own output parses")
    }

    #[test]
    fn flag_missing_its_value_is_a_usage_error() {
        for flag in ["--check", "--out", "--dump-dir"] {
            assert!(
                parse_args(&args(&["rekey", flag])).is_err(),
                "{flag} at end"
            );
            assert!(
                parse_args(&args(&["scale", flag, "--smoke"])).is_err(),
                "{flag} followed by a flag"
            );
        }
    }

    #[test]
    fn suite_comes_first_and_must_be_known() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args(&["--check", "x"])).is_err());
        assert!(parse_args(&args(&["rekey", "--tolerance", "15"])).is_err());
        assert!(parse_args(&args(&["scale", "--smoke", "--write"])).is_err());
        let o = parse_args(&args(&["mobility", "--check", "B.json", "--dump-dir", "d"])).unwrap();
        assert_eq!(o.suite, Suite::Mobility);
        assert_eq!(o.check, Some(PathBuf::from("B.json")));
        assert_eq!(o.dump_dir, Some(PathBuf::from("d")));
        let o = parse_args(&args(&["rekey", "--write"])).unwrap();
        assert_eq!(o.write, Some(PathBuf::from("BENCH_rekey.json")));
    }

    #[test]
    fn write_then_read_round_trips() {
        let rows = vec![
            row("a", 400876.0, 199755.0, 2698253.8),
            Row::new("b")
                .banded("allocs_per_op", 7.0005)
                .exact("ops", 2000.0),
        ];
        let base = baseline_of(&rows);
        assert_eq!(base.len(), 2);
        assert_eq!(base["a"]["events"], 400876.0);
        assert_eq!(base["a"]["events_per_ref_s"], 2698253.8);
        assert_eq!(base["b"]["allocs_per_op"], 7.001);
        assert!(check(&base, &rows, Suite::Scale).is_empty());
    }

    #[test]
    fn exact_drift_fails() {
        let base = baseline_of(&[row("a", 100.0, 1000.0, 1000.0)]);
        let bad = check(&base, &[row("a", 101.0, 1000.0, 1000.0)], Suite::Scale);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("events"));
    }

    #[test]
    fn banded_metric_fails_only_outside_its_band() {
        let base = baseline_of(&[row("a", 1.0, 1000.0, 1000.0)]);
        assert!(check(&base, &[row("a", 1.0, 1149.0, 1000.0)], Suite::Scale).is_empty());
        let bad = check(&base, &[row("a", 1.0, 1151.0, 1000.0)], Suite::Scale);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("peak_heap_bytes"));
    }

    #[test]
    fn rekey_throughput_band_is_thirty_percent() {
        let base = baseline_of(&[row("a", 1.0, 1.0, 1000.0)]);
        assert!(check(&base, &[row("a", 1.0, 1.0, 710.0)], Suite::Rekey).is_empty());
        let bad = check(&base, &[row("a", 1.0, 1.0, 690.0)], Suite::Rekey);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("events_per_ref_s"));
        // The scale suites hold throughput to 15%.
        assert_eq!(
            check(&base, &[row("a", 1.0, 1.0, 840.0)], Suite::Scale).len(),
            1
        );
    }

    #[test]
    fn missing_row_and_missing_metric_fail() {
        let base = baseline_of(&[Row::new("a").exact("events", 1.0)]);
        let bad = check(
            &base,
            &[row("a", 1.0, 1.0, 1.0), row("z", 1.0, 1.0, 1.0)],
            Suite::Scale,
        );
        assert_eq!(bad.len(), 3, "{bad:?}");
        assert!(bad
            .iter()
            .any(|b| b.starts_with("a: peak_heap_bytes: missing")));
        assert!(bad
            .iter()
            .any(|b| b.starts_with("a: events_per_ref_s: missing")));
        assert!(bad.iter().any(|b| b.starts_with("z: missing")));
    }

    #[test]
    fn rounds_fold_exact_agree_banded_max_throughput_median() {
        let runs = vec![
            row("a", 5.0, 10.0, 300.0),
            row("a", 5.0, 30.0, 100.0),
            row("a", 5.0, 20.0, 200.0),
        ];
        let folded = fold_rounds(runs).unwrap();
        assert_eq!(folded.get("events"), Some(5.0));
        assert_eq!(folded.get("peak_heap_bytes"), Some(30.0));
        assert_eq!(folded.get("events_per_ref_s"), Some(200.0));
    }

    #[test]
    fn deterministic_metric_differing_across_rounds_is_broken() {
        let runs = vec![row("a", 5.0, 1.0, 1.0), row("a", 6.0, 1.0, 1.0)];
        let err = fold_rounds(runs).unwrap_err();
        assert!(err.contains("events differs across rounds"), "{err}");
    }

    #[test]
    fn check_reads_the_baseline_before_write_overwrites_it() {
        let path = std::env::temp_dir().join(format!("mykil-gate-{}.json", std::process::id()));
        std::fs::write(&path, render_json(Suite::Scale, &[row("a", 1.0, 1.0, 1.0)])).unwrap();
        let opts = Opts {
            suite: Suite::Scale,
            smoke: false,
            write: Some(path.clone()),
            check: Some(path.clone()),
            out: None,
            dump_dir: None,
        };
        let code = run(&opts, |_, _| Ok(vec![row("a", 2.0, 1.0, 1.0)]));
        let written = parse_baseline(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(code, 1, "fresh run must be checked against the old file");
        assert_eq!(
            written["a"]["events"], 2.0,
            "--write still refreshes the file"
        );
    }

    #[test]
    fn unreadable_baseline_and_broken_runs_exit_2() {
        let opts = Opts {
            suite: Suite::Rekey,
            smoke: false,
            write: None,
            check: Some(PathBuf::from("/nonexistent/BENCH_rekey.json")),
            out: None,
            dump_dir: None,
        };
        assert_eq!(run(&opts, |_, _| Ok(Vec::new())), 2);
        let opts = Opts {
            check: None,
            ..opts
        };
        assert_eq!(run(&opts, |_, _| Err(Abort::Broken("stall".into()))), 2);
        assert_eq!(run(&opts, |_, _| Err(Abort::Regressed("khf".into()))), 1);
    }
}
