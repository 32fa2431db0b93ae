//! Runs one workload k times, each with another seed, and prints every
//! end-to-end metric's median, quartiles and spread against its bound.
//!
//! ```text
//! repeat --workload <name> [--runs 10] [--seconds 25] [--first-seed 1]
//!        [--benchmark BENCHMARK.json]
//! ```
//!
//! Each run is a fresh `stackbench` process (the binary next to this one)
//! with `--trace 0`. The spread is the inter-quartile distance over the
//! median, with quartiles as Python's `statistics.quantiles(values, n=4)`
//! gives them; a metric is `steady` below a third of its bound.

use stackbench::stats::{median, quartiles, relative_spread};
use stackbench::summary::{parse_bounds, parse_result_line};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

struct Options {
    workload: String,
    runs: u64,
    seconds: String,
    first_seed: u64,
    benchmark: String,
}

fn parse_options() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = Options {
        workload: String::new(),
        runs: 10,
        seconds: "25".to_string(),
        first_seed: 1,
        benchmark: "BENCHMARK.json".to_string(),
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--runs" => options.runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => options.seconds = value.clone(),
            "--first-seed" => {
                options.first_seed = value.parse().map_err(|e| format!("--first-seed: {e}"))?
            }
            "--benchmark" => options.benchmark = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if options.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if options.runs < 2 {
        return Err("--runs must be at least 2 for quartiles".to_string());
    }
    Ok(options)
}

fn run() -> Result<bool, String> {
    let options = parse_options()?;
    let bounds = parse_bounds(
        &std::fs::read_to_string(&options.benchmark)
            .map_err(|e| format!("{}: {e}", options.benchmark))?,
    )?;
    let bench = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("stackbench");
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut failed_shares = Vec::new();
    for seed in options.first_seed..options.first_seed + options.runs {
        let output = Command::new(&bench)
            .args(["--workload", &options.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &options.seconds, "--trace", "0"])
            .output()
            .map_err(|e| format!("{}: {e}", bench.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        if !output.status.success() {
            return Err(format!(
                "seed {seed}: exit {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let result = parse_result_line(last).map_err(|e| format!("seed {seed}: {e}"))?;
        let figures: Vec<String> = result
            .metrics
            .iter()
            .map(|(name, value, unit)| format!("{name} {value:.6} {unit}"))
            .collect();
        println!(
            "seed {seed}: correct {} attempted {} failed {} | {}",
            result.correct,
            result.attempted,
            result.failed,
            figures.join(", ")
        );
        failed_shares.push(result.failed as f64 / result.attempted.max(1) as f64);
        for (name, value, _) in result.metrics {
            values.entry(name).or_default().push(value);
        }
    }
    println!(
        "{:<22} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut all_within = true;
    for (name, bound) in &bounds {
        let Some(samples) = values.get(name) else {
            println!("{name:<22} missing from the result lines");
            all_within = false;
            continue;
        };
        let [q1, _, q3] = quartiles(samples).ok_or("too few runs")?;
        let mid = median(samples).ok_or("no runs")?;
        let spread = relative_spread(samples).unwrap_or(f64::INFINITY);
        let verdict = if spread < bound / 3.0 {
            "steady"
        } else if spread <= *bound {
            "within bound"
        } else {
            "OVER BOUND"
        };
        // The spread of set-up time is not held to its bound.
        all_within &= name == "setup_s" || spread <= *bound;
        println!(
            "{name:<22} {mid:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>7.3}  {verdict}"
        );
    }
    let same_share = failed_shares.windows(2).all(|w| w[0] == w[1]);
    println!(
        "failed share {} across runs",
        if same_share { "identical" } else { "DIFFERS" }
    );
    Ok(all_within && same_share)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("repeat: {message}");
            ExitCode::from(2)
        }
    }
}
