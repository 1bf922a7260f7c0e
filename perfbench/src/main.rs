//! The repository benchmark: the EDD co-search, steady and bursty serving
//! of the compiled tiny zoo, and pulsed streaming, measured end to end
//! and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search|serve_steady|serve_burst|stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics of an untraced measurement. With `--trace 1` the
//! workload is measured twice, untraced and then traced, and the last line
//! carries the per-layer metrics; the lines before it give both sets of
//! end-to-end figures and the tracing overhead. Every output is checked
//! against an oracle outside the timed sections; see `README.md`.

mod host;
mod report;
mod schedule;
mod search;
mod serve;
mod stats;
mod stream;
mod trace;
mod zoo;

use report::{result_line, values_json, Outcome};
use std::process::ExitCode;

/// The workloads. `BENCHMARK.json` lists all but `serve_burst`, whose
/// figures are not steady on a shared host; it runs by hand.
const WORKLOADS: [&str; 4] = ["search", "serve_steady", "serve_burst", "stream"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?);
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value:?} (1..=600)"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let secs = args.seconds as f64;
    match args.workload.as_str() {
        "search" => search::run(args.seed, secs, args.trace),
        "serve_steady" => serve::run(serve::STEADY, args.seed, secs, args.trace),
        "serve_burst" => serve::run(serve::BURST, args.seed, secs, args.trace),
        "stream" => stream::run(args.seed, secs, args.trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let host = host::Fingerprint::current();
    for (k, v) in &out.notes {
        println!("# {k}: {v}");
    }
    println!("# end_to_end (untraced): {}", values_json(&out.end_to_end));
    if args.trace {
        println!(
            "# end_to_end (traced): {}",
            values_json(&out.traced_end_to_end)
        );
        println!(
            "# tracing overhead (traced - untraced): {}",
            values_json(&out.tracing_overhead())
        );
        println!("# per_layer: {}", values_json(&out.per_layer));
    }
    let (metrics, missing) = out.result_metrics(args.trace);
    if !missing.is_empty() {
        println!("# metrics not measured: {}", missing.join(", "));
    }
    let correct = out.failed == 0 && out.attempted > 0 && missing.is_empty();
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"end_to_end\": {}, \"traced_end_to_end\": {}, \"per_layer\": {}}}}}",
        host::json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.to_json(),
        values_json(&out.end_to_end),
        values_json(&out.traced_end_to_end),
        values_json(&out.per_layer),
    );
    // Nothing attempted counts as one failed operation.
    let (attempted, failed) = match out.attempted {
        0 => (1, 1),
        n => (n, out.failed),
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a =
            parse_args(&argv("--workload stream --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "stream".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload search --seconds 1",
            "--workload search --seed 1 --seconds 0",
            "--workload search --seed 1 --seconds 1 --trace 2",
            "--workload search --seed 1 --seconds 1 --extra 3",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
