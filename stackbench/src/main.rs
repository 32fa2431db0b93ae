//! Runs one benchmark workload and prints its result line.
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result: end-to-end metrics
//! for `--trace 0`, per-layer metrics for `--trace 1`.

use stackbench::report::RunConfig;
use std::process::ExitCode;
use std::time::Duration;

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            window: seconds.ok_or("--seconds is required")?,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("stackbench: {message}");
            eprintln!("usage: stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match stackbench::run_workload(&workload, &config) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("stackbench: {workload}: {message}");
            ExitCode::FAILURE
        }
    }
}
