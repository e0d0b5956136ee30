//! End-to-end and per-layer benchmark of the deployed rebeca system.
//!
//! Three workloads, each run in its own process by `perfbench/run.py`:
//!
//! * `live-publish` — the read path: two `ProcessRuntime` partitions in
//!   one process joined by a socketpair ([`live_publish`]);
//! * `live-churn` — the replicated mutation path over the same transport
//!   ([`live_churn`]);
//! * `sim-roaming` — roaming clients in the deterministic simulator
//!   ([`sim_roaming`]).
//!
//! The untraced binary (`perfbench`) reports end-to-end metrics; the
//! traced binary (`perfbench-traced`) installs a counting allocator and
//! wraps nodes in timing probes to report the per-layer budget. See
//! `perfbench/README.md`.

pub mod checks;
pub mod live_churn;
pub mod live_publish;
pub mod probe;
pub mod procfs;
pub mod report;
pub mod sim_roaming;
pub mod stats;

use report::Outcome;

/// Parsed command line: `--workload <name> --seed <n> --seconds <s>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time of one run, in seconds.
    pub seconds: f64,
}

/// Parses the benchmark's command line (the program name excluded).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds })
}

/// Runs one workload and returns its outcome.
pub fn run(args: &Args, traced: bool) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "live-publish" => Ok(live_publish::run(args.seed, args.seconds, traced)),
        "live-churn" => Ok(live_churn::run(args.seed, args.seconds, traced)),
        "sim-roaming" => Ok(sim_roaming::run(args.seed, args.seconds, traced)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Entry point shared by both binaries: runs the workload, prints notes
/// and faults, and prints the result line last.
pub fn main_with(traced: bool) -> std::process::ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args, traced) {
        Ok(outcome) => {
            for n in &outcome.notes {
                println!("# {n}");
            }
            for f in &outcome.faults {
                println!("# FAULT: {f}");
            }
            println!("{}", outcome.json_line());
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
