//! `vgg9-b8-warm`: back-to-back B=8 batches of VGG-9 on one tile, on a
//! compile cache warmed during set-up.
//!
//! Host time goes to the `ap`/`cam` plan kernels and the backend's inline
//! `tnn` reference; `apc` only answers cache lookups.

use crate::inputs::{activations, SplitMix64};
use crate::layers::{engine_metric, mismatched_samples, PerLayer, VGG9_LAYERS};
use crate::replay::replay_layers;
use crate::report::{
    dump_trace, print_overhead, start_tracing, traced, Metric, Outcome, RunConfig, SetupPlan,
    Window,
};
use crate::{median_or_zero, procfs, Stack};
use apc::{CompileCache, TileGrid};
use camdnn::BatchReport;
use std::time::Duration;
use tnn::infer::InferenceTrace;
use tnn::model::{vgg9, ModelGraph};
use tnn::Tensor;

/// Workload name.
pub const NAME: &str = "vgg9-b8-warm";
/// Samples per batch.
const BATCH: usize = 8;
/// Distinct input batches; one round runs each once.
const POOL: usize = 2;
/// Samples of the first batch re-run alone for the batch-equivalence check.
const PROPERTY_SAMPLES: usize = 2;
/// Set-ups per run (each is seconds long, so no averaging within groups).
const SETUP: SetupPlan = SetupPlan {
    groups: 3,
    per_group: 1,
};
/// Model parameters: weight sparsity and weight seed.
const SPARSITY: f64 = 0.90;
const WEIGHT_SEED: u64 = 3;

/// One measured batch.
struct Measured {
    pool_index: usize,
    wall_ms: f64,
    cpu_ms: f64,
    report: Option<BatchReport>,
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up or reference failure.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let stack = Stack::new(TileGrid::new(1, 1));
    let act_bits = stack.act_bits();
    let shape = vgg9(SPARSITY, WEIGHT_SEED).input_shape();
    let mut rng = SplitMix64::new(config.seed, 1);
    let pool: Vec<Vec<Tensor<i64>>> = (0..POOL)
        .map(|_| activations(shape, act_bits, BATCH, &mut rng))
        .collect();

    // Set-up: build the model and warm a fresh compile cache with one batch.
    let (setup_s, (model, cache)) = SETUP.run(|| {
        let model = vgg9(SPARSITY, WEIGHT_SEED);
        let cache = CompileCache::new();
        stack
            .backend
            .run_batch(&model, &pool[0], &cache)
            .map_err(|e| format!("warm-up batch: {e}"))?;
        Ok((model, cache))
    })?;
    let names: Vec<String> = model
        .conv_like_layers()
        .into_iter()
        .map(|l| l.name)
        .collect();
    if names != VGG9_LAYERS {
        return Err(format!("unexpected VGG-9 layers {names:?}"));
    }

    // References, computed outside the measured window.
    let references: Vec<Vec<InferenceTrace>> = pool
        .iter()
        .map(|batch| tnn::infer::run_batch(&model, batch, Some(act_bits)))
        .collect::<tnn::Result<_>>()
        .map_err(|e| format!("reference: {e}"))?;

    let (untraced_len, traced_len) = config.windows();
    let untraced = measure(&stack, &model, &cache, &pool, untraced_len);
    let traced_batches = if config.trace {
        start_tracing();
        let batches = measure(&stack, &model, &cache, &pool, traced_len);
        telemetry::set_enabled(false);
        batches
    } else {
        Vec::new()
    };

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for batch in untraced.iter().chain(&traced_batches) {
        attempted += 1;
        let refs: Vec<&InferenceTrace> = references[batch.pool_index].iter().collect();
        if batch
            .report
            .as_ref()
            .is_none_or(|r| mismatched_samples(r, &refs) > 0)
        {
            failed += 1;
        }
    }

    // Batch equivalence: samples of the first batch re-run alone must give
    // the logits they had inside the batch.
    let first = untraced
        .iter()
        .filter(|b| b.pool_index == 0)
        .find_map(|b| b.report.as_ref())
        .ok_or("no batch of the first input set completed")?;
    for k in 0..PROPERTY_SAMPLES {
        let slot = (config.seed as usize + k * (BATCH / PROPERTY_SAMPLES)) % BATCH;
        attempted += 1;
        let alone = stack
            .backend
            .run_batch(&model, std::slice::from_ref(&pool[0][slot]), &cache);
        if alone.map_or(true, |r| r.samples[0].logits != first.samples[slot].logits) {
            failed += 1;
        }
    }

    if !config.trace {
        return Ok(Outcome {
            correct: true,
            attempted,
            failed,
            metrics: end_to_end(&untraced, setup_s),
        });
    }

    let mut layers = PerLayer::default();
    let traced_walls: Vec<f64> = traced_batches.iter().map(|b| b.wall_ms).collect();
    let untraced_walls: Vec<f64> = untraced.iter().map(|b| b.wall_ms).collect();
    print_overhead(
        "latency_ms",
        "ms",
        median_or_zero(&untraced_walls),
        median_or_zero(&traced_walls),
    );
    layers.set("core.run_batch_ms", median_or_zero(&traced_walls));
    layers.set_recorder_figures(traced_batches.len());
    telemetry::set_enabled(true);
    let (_, reference_ms) = traced("bench.tnn.reference", || {
        tnn::infer::run_batch(&model, &pool[0], Some(act_bits))
    });
    layers.set("tnn.reference_ms", reference_ms);
    if let Some(report) = traced_batches.iter().find_map(|b| b.report.as_ref()) {
        layers.set_report_counters(report);
    }
    let replays = replay_layers(
        &model,
        &stack.arch,
        stack.backend.compiler_options(),
        stack.backend.tile_grid(),
        &cache,
        &pool[0],
        &references[0],
    )?;
    let mut correct = true;
    for replay in &replays {
        layers.set(&engine_metric(&replay.name), replay.engine_ms);
        correct &= replay.mismatched == 0;
    }
    layers
        .set_analytic(&model, &stack, &cache)
        .map_err(|e| format!("analytic model: {e}"))?;
    telemetry::set_enabled(false);
    let dir = dump_trace(NAME, config.seed).map_err(|e| format!("trace dump: {e}"))?;
    println!("trace written to {}", dir.display());
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: layers.into_metrics(),
    })
}

/// Runs whole rounds of the input pool until `length` has passed.
fn measure(
    stack: &Stack,
    model: &ModelGraph,
    cache: &CompileCache,
    pool: &[Vec<Tensor<i64>>],
    length: Duration,
) -> Vec<Measured> {
    let window = Window::open(length);
    let mut batches = Vec::new();
    while !window.expired() {
        for (pool_index, inputs) in pool.iter().enumerate() {
            let cpu_before = procfs::cpu_ms();
            let (report, wall_ms) = traced("bench.core.run_batch", || {
                stack.backend.run_batch(model, inputs, cache)
            });
            batches.push(Measured {
                pool_index,
                wall_ms,
                cpu_ms: procfs::cpu_ms() - cpu_before,
                report: report.ok(),
            });
        }
    }
    batches
}

/// The end-to-end metrics of the untraced window.
fn end_to_end(batches: &[Measured], setup_s: f64) -> Vec<Metric> {
    let walls: Vec<f64> = batches.iter().map(|b| b.wall_ms).collect();
    let reports: Vec<&BatchReport> = batches.iter().filter_map(|b| b.report.as_ref()).collect();
    let samples: usize = reports.iter().map(|r| r.batch_size).sum();
    let energy_uj: f64 = reports.iter().map(|r| r.energy_uj).sum();
    let cpu_ms: f64 = batches.iter().map(|b| b.cpu_ms).sum();
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
        Metric::new("latency_ms", median_or_zero(&walls), "ms"),
        Metric::new("cpu_ms_per_sample", cpu_ms / samples.max(1) as f64, "ms"),
        Metric::new(
            "model_uj_per_sample",
            energy_uj / samples.max(1) as f64,
            "uJ",
        ),
    ]
}
