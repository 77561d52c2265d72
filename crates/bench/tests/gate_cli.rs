//! The `gate` binary's usage errors: each must exit 2 before any
//! workload runs, never 0 with nothing checked.

use std::process::Command;

fn gate(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_gate"))
        .args(args)
        .output()
        .expect("gate binary runs")
        .status
        .code()
}

#[test]
fn check_without_a_path_exits_2() {
    assert_eq!(gate(&["rekey", "--check"]), Some(2));
    assert_eq!(gate(&["scale", "--smoke", "--check"]), Some(2));
    assert_eq!(gate(&["mobility", "--check", "--dump-dir", "d"]), Some(2));
}

#[test]
fn other_usage_errors_exit_2() {
    assert_eq!(gate(&[]), Some(2));
    assert_eq!(gate(&["perf"]), Some(2));
    assert_eq!(gate(&["rekey", "--tolerance", "15"]), Some(2));
    assert_eq!(gate(&["mobility", "--out"]), Some(2));
    assert_eq!(gate(&["scale", "--smoke", "--write"]), Some(2));
}

#[test]
fn unreadable_baseline_exits_2_before_running() {
    assert_eq!(
        gate(&["rekey", "--check", "/nonexistent/BENCH_rekey.json"]),
        Some(2)
    );
}
