//! The result line, measurement windows and trace helpers shared by the
//! workloads.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run of a workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every operation that did not fail produced correct output.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (an error, a rejection, a missing completion
    /// or an output that does not match the reference).
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or per-layer metrics (traced
    /// run).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result as one line of JSON. A non-finite value cannot be written
    /// as JSON and marks the run incorrect, written as `-1`.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced run (per-layer metrics) rather than the
    /// untraced run (end-to-end metrics).
    pub trace: bool,
}

impl RunConfig {
    /// The windows of one run: the whole window untraced, or — in a traced
    /// run — an untraced first half for the overhead comparison and a traced
    /// second half.
    pub fn windows(&self) -> (Duration, Duration) {
        if self.trace {
            (self.window / 2, self.window - self.window / 2)
        } else {
            (self.window, Duration::ZERO)
        }
    }
}

/// A measured window: work is attempted in whole rounds until it has run
/// for its length.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    /// Opens a window of `length` now.
    pub fn open(length: Duration) -> Self {
        Window {
            start: Instant::now(),
            length,
        }
    }

    /// Whether the window's time is up.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.length
    }
}

/// Times `f`, returning its result and the elapsed wall-clock milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Set-up repeated `groups × per_group` times; `setup_s` is the median over
/// the groups of each group's mean set-up time.
///
/// The host this benchmark was tuned on switches between a fast and a slow
/// speed every fraction of a second to seconds (about 1.6× apart), so a
/// median of single short set-ups lands in one speed mode or the other;
/// averaging within a group first spans several switches.
#[derive(Debug, Clone, Copy)]
pub struct SetupPlan {
    /// Groups of set-ups; the median is taken over these.
    pub groups: usize,
    /// Set-ups per group, averaged.
    pub per_group: usize,
}

impl SetupPlan {
    /// Runs `setup` as planned, dropping each result before the next set-up
    /// starts (outside the timing). Returns `setup_s` and the last result.
    ///
    /// # Errors
    ///
    /// Returns the first set-up error.
    pub fn run<T>(self, mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
        let mut group_means = Vec::with_capacity(self.groups);
        let mut last = None;
        for _ in 0..self.groups {
            let mut total_s = 0.0;
            for _ in 0..self.per_group {
                drop(last.take());
                let (result, ms) = timed(&mut setup);
                total_s += ms / 1e3;
                last = Some(result?);
            }
            group_means.push(total_s / self.per_group as f64);
        }
        let setup_s = crate::stats::median(&group_means).ok_or("no set-up was planned")?;
        Ok((setup_s, last.ok_or("no set-up was planned")?))
    }
}

/// Times `f` under a benchmark-side span named `name` (inert untraced).
pub fn traced<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = telemetry::span(name);
    timed(f)
}

/// Starts recording telemetry from a clean state.
pub fn start_tracing() {
    telemetry::reset();
    telemetry::set_enabled(true);
}

/// Summed self time, in milliseconds, of every recorded span path whose
/// innermost span is `name`.
pub fn span_self_ms(name: &str) -> f64 {
    span_ms(name, |_, self_ns| self_ns)
}

/// Summed total time, in milliseconds, of every recorded span path whose
/// innermost span is `name`.
pub fn span_total_ms(name: &str) -> f64 {
    span_ms(name, |total_ns, _| total_ns)
}

fn span_ms(name: &str, pick: impl Fn(u64, u64) -> u64) -> f64 {
    telemetry::global()
        .spans()
        .collect()
        .into_iter()
        .filter(|(path, ..)| path.rsplit(';').next() == Some(name))
        .map(|(_, _, total_ns, self_ns)| pick(total_ns, self_ns))
        .sum::<u64>() as f64
        / 1e6
}

/// The value of a registry counter.
pub fn counter(name: &str) -> u64 {
    telemetry::global().registry().counter(name)
}

/// Writes the recorder's `metrics_snapshot_v1` JSON and collapsed-stack
/// flamegraph for this run, returning the directory written to. Files go
/// under `$CARGO_TARGET_DIR/stackbench-trace` (or `stackbench/target/...`).
///
/// # Errors
///
/// Returns the I/O error of a failed write.
pub fn dump_trace(workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("stackbench/target"));
    let dir = target
        .join("stackbench-trace")
        .join(format!("{workload}-seed{seed}"));
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join("metrics_snapshot.json"),
        telemetry::snapshot().to_json(),
    )?;
    std::fs::write(dir.join("flamegraph.txt"), telemetry::flamegraph())?;
    Ok(dir)
}

/// Prints one end-to-end figure measured untraced and traced side by side,
/// with the difference as the tracing overhead.
pub fn print_overhead(name: &str, unit: &str, untraced: f64, traced: f64) {
    let overhead = if untraced != 0.0 {
        (traced - untraced) / untraced * 100.0
    } else {
        0.0
    };
    println!(
        "overhead {name}: untraced {untraced:.4} {unit}, traced {traced:.4} {unit} ({overhead:+.1}%)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_documented_shape() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::new("latency_ms", 1.5, "ms"),
                Metric::new("setup_s", 0.25, "s"),
            ],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_mark_the_run_incorrect() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("x", f64::NAN, "ms")],
        };
        assert!(outcome.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn setup_plans_run_every_setup_and_keep_the_last() {
        let mut calls = 0;
        let (setup_s, last) = SetupPlan {
            groups: 3,
            per_group: 2,
        }
        .run(|| {
            calls += 1;
            Ok(calls)
        })
        .expect("set-up");
        assert_eq!((calls, last), (6, 6));
        assert!(setup_s >= 0.0);
        let failing = SetupPlan {
            groups: 1,
            per_group: 1,
        }
        .run(|| Err::<(), _>("boom".to_string()));
        assert_eq!(failing.unwrap_err(), "boom");
    }

    #[test]
    fn traced_runs_split_the_window() {
        let config = RunConfig {
            seed: 1,
            window: Duration::from_secs(9),
            trace: true,
        };
        assert_eq!(
            config.windows(),
            (Duration::from_millis(4500), Duration::from_millis(4500))
        );
        let untraced = RunConfig {
            trace: false,
            ..config
        };
        assert_eq!(untraced.windows(), (Duration::from_secs(9), Duration::ZERO));
    }
}
