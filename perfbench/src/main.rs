//! End-to-end and per-layer benchmark of bamboo-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures every end-to-end metric with no tracing;
//! with `--trace 1` it prints the per-layer metrics instead, from spans the
//! benchmark records around its own calls into each layer. Either way the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod host;
mod layers;
mod report;
mod sim;
mod stats;
mod tcp;
mod trace;

use std::process::ExitCode;

use report::Report;

/// The workloads: the three `BENCHMARK.json` drives, then `tcp_hs_n4`,
/// which runs only by hand (see the README).
const WORKLOADS: [&str; 4] = [
    "sim_hs_n64",
    "sim_signed_ingress",
    "sim_durable_restart",
    "tcp_hs_n4",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let host = host::HostRecord::current();
    println!(
        "host: {} cpus, {}, {}",
        host.cpus, host.cpu_model, host.rustc
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    match (sim::spec(&args.workload, args.seed), args.trace) {
        (Some(spec), false) => sim::run(&args.workload, &spec, args.seconds, &mut report),
        (Some(spec), true) => sim::traced(&args.workload, &spec, args.seconds, &mut report),
        (None, false) => tcp::run(args.seed, args.seconds, &mut report),
        (None, true) => tcp::traced(args.seed, args.seconds, &mut report),
    }
    print!("{}", report.human());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
