//! `resnet18-2x2-cold`: first requests of the reduced ResNet-18 on a 2×2
//! tile grid, each from an empty compile cache.
//!
//! Host time goes to `apc` (layer compilation, plan lowering, partitioning);
//! the run also covers channel-split merges, routing and residual `Add`s.

use crate::inputs::{activations, SplitMix64};
use crate::layers::{mismatched_samples, PerLayer};
use crate::report::{
    counter, dump_trace, print_overhead, span_total_ms, start_tracing, traced, Metric, Outcome,
    RunConfig, SetupPlan, Window,
};
use crate::{median_or_zero, procfs, Stack};
use apc::{CompileCache, TileGrid};
use camdnn::BatchReport;
use std::time::Duration;
use tnn::infer::InferenceTrace;
use tnn::model::{resnet18_at, ModelGraph};
use tnn::Tensor;

/// Workload name.
pub const NAME: &str = "resnet18-2x2-cold";
/// Input side of the reduced ResNet-18, weight sparsity and weight seed.
const SIDE: usize = 64;
const SPARSITY: f64 = 0.8;
const WEIGHT_SEED: u64 = 7;
/// Distinct inputs; requests cycle through them, one per request.
const POOL: usize = 2;
/// Set-ups per run: each builds the model in a fraction of a second.
const SETUP: SetupPlan = SetupPlan {
    groups: 5,
    per_group: 3,
};

/// One measured cold request.
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
    let stack = Stack::new(TileGrid::new(2, 2));
    let act_bits = stack.act_bits();

    // Set-up: building the model. Compilation belongs to each request.
    let (setup_s, model) = SETUP.run(|| Ok(resnet18_at(SIDE, SPARSITY, WEIGHT_SEED)))?;
    let mut rng = SplitMix64::new(config.seed, 2);
    let pool = activations(model.input_shape(), act_bits, POOL, &mut rng);
    let references: Vec<InferenceTrace> = tnn::infer::run_batch(&model, &pool, Some(act_bits))
        .map_err(|e| format!("reference: {e}"))?;

    let (untraced_len, traced_len) = config.windows();
    let (untraced, mut last_cache) = measure(&stack, &model, &pool, untraced_len);
    let mut traced_requests = Vec::new();
    let mut layers = PerLayer::default();
    if config.trace {
        start_tracing();
        let (requests, cache) = measure(&stack, &model, &pool, traced_len);
        telemetry::set_enabled(false);
        traced_requests = requests;
        last_cache = cache;
        set_compile_figures(&mut layers, traced_requests.len());
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for request in untraced.iter().chain(&traced_requests) {
        attempted += 1;
        let reference = [&references[request.pool_index]];
        if request
            .report
            .as_ref()
            .is_none_or(|r| mismatched_samples(r, &reference) > 0)
        {
            failed += 1;
        }
    }

    // Cold-versus-warm equivalence: the first input re-run on the cache the
    // last cold request filled gives the logits of its own cold request.
    let cold = untraced
        .iter()
        .filter(|r| r.pool_index == 0)
        .find_map(|r| r.report.as_ref())
        .ok_or("no request of the first input completed")?;
    let cache = last_cache.ok_or("no request was measured")?;
    if config.trace {
        telemetry::set_enabled(true);
    }
    let (warm, warm_ms) = traced("bench.core.run_batch_warm", || {
        stack.backend.run_batch(&model, &pool[..1], &cache)
    });
    attempted += 1;
    if warm.map_or(true, |w| w.samples[0].logits != cold.samples[0].logits) {
        failed += 1;
    }

    if !config.trace {
        return Ok(Outcome {
            correct: true,
            attempted,
            failed,
            metrics: end_to_end(&untraced, setup_s),
        });
    }

    let traced_walls: Vec<f64> = traced_requests.iter().map(|r| r.wall_ms).collect();
    let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall_ms).collect();
    print_overhead(
        "latency_ms",
        "ms",
        median_or_zero(&untraced_walls),
        median_or_zero(&traced_walls),
    );
    layers.set("core.run_batch_ms", median_or_zero(&traced_walls));
    layers.set("core.run_batch_warm_ms", warm_ms);
    let (_, reference_ms) = traced("bench.tnn.reference", || {
        tnn::infer::run(&model, &pool[0], Some(act_bits))
    });
    layers.set("tnn.reference_ms", reference_ms);
    if let Some(report) = traced_requests.iter().find_map(|r| r.report.as_ref()) {
        layers.set_report_counters(report);
    }
    layers
        .set_analytic(&model, &stack, &cache)
        .map_err(|e| format!("analytic model: {e}"))?;
    telemetry::set_enabled(false);
    let dir = dump_trace(NAME, config.seed).map_err(|e| format!("trace dump: {e}"))?;
    println!("trace written to {}", dir.display());
    Ok(Outcome {
        correct: true,
        attempted,
        failed,
        metrics: layers.into_metrics(),
    })
}

/// Records the compile-stage times and plan counters, per request, from the
/// recorder after `requests` traced cold requests.
fn set_compile_figures(layers: &mut PerLayer, requests: usize) {
    let per_request = requests.max(1) as f64;
    layers.set(
        "apc.compile_ms",
        span_total_ms("apc.compile.layer") / per_request,
    );
    layers.set(
        "apc.plan_ms",
        span_total_ms("apc.compile.plan") / per_request,
    );
    layers.set(
        "apc.partition_ms",
        span_total_ms("apc.compile.partition") / per_request,
    );
    for (metric, name) in [
        ("apc.passes_before_fusion", "apc.plan.passes_before_fusion"),
        ("apc.passes_after_fusion", "apc.plan.passes_after_fusion"),
    ] {
        layers.set(metric, counter(name) as f64 / per_request);
    }
    layers.set_recorder_figures(requests);
}

/// Runs cold requests, cycling through the input pool, until `length` has
/// passed. Returns them with the cache the last request filled.
fn measure(
    stack: &Stack,
    model: &ModelGraph,
    pool: &[Tensor<i64>],
    length: Duration,
) -> (Vec<Measured>, Option<CompileCache>) {
    let window = Window::open(length);
    let mut requests = Vec::new();
    let mut last_cache = None;
    while !window.expired() {
        let pool_index = requests.len() % pool.len();
        // Free the previous request's cache before this one, outside the
        // timed request, so only one filled cache is ever resident.
        drop(last_cache.take());
        let cache = CompileCache::new();
        let cpu_before = procfs::cpu_ms();
        let (report, wall_ms) = traced("bench.core.run_batch", || {
            stack
                .backend
                .run_batch(model, std::slice::from_ref(&pool[pool_index]), &cache)
        });
        requests.push(Measured {
            pool_index,
            wall_ms,
            cpu_ms: procfs::cpu_ms() - cpu_before,
            report: report.ok(),
        });
        last_cache = Some(cache);
    }
    (requests, last_cache)
}

/// The end-to-end metrics of the untraced window.
fn end_to_end(requests: &[Measured], setup_s: f64) -> Vec<Metric> {
    let walls: Vec<f64> = requests.iter().map(|r| r.wall_ms).collect();
    let reports: Vec<&BatchReport> = requests.iter().filter_map(|r| r.report.as_ref()).collect();
    let samples = reports.len().max(1) as f64;
    let energy_uj: f64 = reports.iter().map(|r| r.energy_uj).sum();
    let cpu_ms: f64 = requests.iter().map(|r| r.cpu_ms).sum();
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
        Metric::new("latency_ms", median_or_zero(&walls), "ms"),
        Metric::new("cpu_ms_per_sample", cpu_ms / samples, "ms"),
        Metric::new("model_uj_per_sample", energy_uj / samples, "uJ"),
    ]
}
