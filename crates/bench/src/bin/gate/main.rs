//! The perf gate: one binary for the three committed baselines.
//!
//! ```text
//! gate rekey                              # rekey hot path, RSA-2048 (BENCH_rekey.json)
//! gate scale [--smoke]                    # flash-crowd join + mass leave (BENCH_scale.json)
//! gate mobility [--smoke]                 # mobility storm under chaos faults (BENCH_mobility.json)
//!      --write | --check <path> | --out <path> | --dump-dir <dir>
//! ```
//!
//! The workloads live here; everything else — the row type and its
//! gate policies, rounds and the normalising kernel, the JSON format,
//! `check`, the command line and the failure artifacts — is
//! `mykil_bench::harness` (DESIGN.md §10).

mod rekey;
mod scale;

use mykil_bench::alloc_track::CountingAllocator;
use mykil_bench::harness::{self, Suite};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match harness::parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", harness::USAGE);
            std::process::exit(2);
        }
    };
    let code = harness::run(&opts, |opts, rounds| match opts.suite {
        Suite::Rekey => rekey::run(rounds),
        Suite::Scale => scale::flash_crowd(opts, rounds),
        Suite::Mobility => scale::mobility(opts, rounds),
    });
    std::process::exit(code);
}
