//! End-to-end and per-layer benchmark of the camdnn stack.
//!
//! One process runs one named workload (see [`WORKLOADS`]) for a measured
//! window, checks every output against a reference it computes itself, and
//! prints one JSON result line. An untraced run reports the end-to-end
//! metrics; a traced run reports the per-layer metrics of [`layers`].

pub mod inputs;
pub mod layers;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod resnet;
pub mod serving;
pub mod stats;
pub mod summary;
pub mod vgg9;

use accel::ArchConfig;
use apc::{CompilerOptions, TileGrid};
use camdnn::FunctionalBackend;
use report::{Outcome, RunConfig};

/// The workloads, by the name `--workload` selects them with.
pub const WORKLOADS: [&str; 3] = [vgg9::NAME, resnet::NAME, serving::NAME];

/// The functional backend with the architecture it models, shared by the
/// workloads and the per-layer probes.
#[derive(Debug, Clone)]
pub struct Stack {
    /// The modeled architecture (default configuration).
    pub arch: ArchConfig,
    /// The functional backend on `arch` with default compiler options.
    pub backend: FunctionalBackend,
}

impl Stack {
    /// The default architecture and compiler options on `grid`.
    pub fn new(grid: TileGrid) -> Self {
        let arch = ArchConfig::default();
        let backend = FunctionalBackend::new(arch, CompilerOptions::default()).with_tile_grid(grid);
        Stack { arch, backend }
    }

    /// Activation precision of the compiled programs.
    pub fn act_bits(&self) -> u8 {
        self.backend.compiler_options().act_bits
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// Returns an error for an unknown workload or a failure outside any measured
/// operation (set-up, reference computation).
pub fn run_workload(name: &str, config: &RunConfig) -> Result<Outcome, String> {
    match name {
        vgg9::NAME => vgg9::run(config),
        resnet::NAME => resnet::run(config),
        serving::NAME => serving::run(config),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// The median of `values`, or 0 for an empty sample.
pub fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}
