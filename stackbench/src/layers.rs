//! The per-layer metrics of a traced run and what every workload shares.
//!
//! Every traced run reports the full list below, in this order; a metric a
//! workload does not exercise (say, the serving phases in a VGG-9 run) reads
//! 0. The list matches the `per_layer` section of `BENCHMARK.json`.

use crate::report::Metric;
use apc::CompileCache;
use camdnn::BatchReport;
use std::collections::BTreeMap;
use tnn::infer::InferenceTrace;
use tnn::model::ModelGraph;

/// Weighted layers of `vgg9`, in network order: one engine-replay metric
/// each.
pub const VGG9_LAYERS: [&str; 9] = [
    "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "fc1", "fc2", "fc3",
];

/// Per-layer metrics before and after the VGG-9 engine-replay block.
const HEAD: [(&str, &str); 8] = [
    ("core.run_batch_ms", "ms"),
    ("core.run_batch_warm_ms", "ms"),
    ("tnn.reference_ms", "ms"),
    ("core.pack_ms", "ms"),
    ("core.unit_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("ap.plan_runs", "count"),
    ("ap.kernel_dispatches", "count"),
];
const TAIL: [(&str, &str); 22] = [
    ("cam.model_latency_us", "us"),
    ("cam.searched_bits", "bits"),
    ("cam.written_bits", "bits"),
    ("cam.shifts", "count"),
    ("apc.compile_ms", "ms"),
    ("apc.plan_ms", "ms"),
    ("apc.partition_ms", "ms"),
    ("apc.passes_before_fusion", "count"),
    ("apc.passes_after_fusion", "count"),
    ("apc.partition_units", "count"),
    ("apc.route_traffic_bits", "bits"),
    ("accel.analytic_uj", "uJ"),
    ("accel.analytic_latency_us", "us"),
    ("baseline.crossbar_uj", "uJ"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.merge_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "requests"),
    ("serve.gen_late_max_ms", "ms"),
    ("serve.p99_ms", "ms"),
];

/// The name of the engine-replay metric of VGG-9 layer `layer`.
pub fn engine_metric(layer: &str) -> String {
    format!("ap.layer.{layer}.engine_ms")
}

/// Every per-layer metric as `(name, unit)`, in reporting order.
pub fn declared() -> Vec<(String, &'static str)> {
    HEAD.iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(VGG9_LAYERS.iter().map(|layer| (engine_metric(layer), "ms")))
        .chain(TAIL.iter().map(|&(name, unit)| (name.to_string(), unit)))
        .collect()
}

/// The per-layer figures a traced run collected, by name.
#[derive(Debug, Clone, Default)]
pub struct PerLayer(BTreeMap<String, f64>);

impl PerLayer {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a declared per-layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            declared().iter().any(|(declared, _)| declared == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name.to_string(), value);
    }

    /// Every declared metric, the unrecorded ones as 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        declared()
            .into_iter()
            .map(|(name, unit)| {
                let value = self.0.get(&name).copied().unwrap_or(0.0);
                Metric::new(name, value, unit)
            })
            .collect()
    }

    /// Records the modeled batch latency, per-sample CAM counters and
    /// partition shape of `report`.
    pub fn set_report_counters(&mut self, report: &BatchReport) {
        let samples = report.batch_size as f64;
        let stats = report.attributed_stats();
        self.set("cam.model_latency_us", report.latency_ms * 1e3);
        self.set("cam.searched_bits", stats.searched_bits as f64 / samples);
        self.set("cam.written_bits", stats.written_bits as f64 / samples);
        self.set("cam.shifts", stats.shifts as f64 / samples);
        if let Some(partition) = &report.partition {
            self.set("apc.partition_units", partition.units as f64);
            self.set("apc.route_traffic_bits", partition.traffic_bits as f64);
        }
    }

    /// Records the functional backend's own span self times and plan
    /// counters, per batch, from the recorder after `batches` traced batches.
    pub fn set_recorder_figures(&mut self, batches: usize) {
        let per_batch = batches.max(1) as f64;
        use crate::report::{counter, span_self_ms};
        self.set("core.pack_ms", span_self_ms("functional.pack") / per_batch);
        self.set("core.unit_ms", span_self_ms("functional.unit") / per_batch);
        self.set(
            "core.merge_ms",
            span_self_ms("functional.merge") / per_batch,
        );
        self.set("ap.plan_runs", counter("ap.plan.runs") as f64 / per_batch);
        self.set(
            "ap.kernel_dispatches",
            counter("ap.kernel.dispatches") as f64 / per_batch,
        );
    }

    /// Records the analytic `rtm-ap` model and the crossbar baseline for one
    /// inference of `model`, from layers compiled through `cache`.
    ///
    /// # Errors
    ///
    /// Returns the compilation error of a layer.
    pub fn set_analytic(
        &mut self,
        model: &ModelGraph,
        backend: &crate::Stack,
        cache: &CompileCache,
    ) -> apc::Result<()> {
        let options = *backend.backend.compiler_options();
        let compiled = cache.compile_model(&apc::LayerCompiler::new(options), model)?;
        let analytic = accel::NetworkSimulator::new(backend.arch, options)
            .simulate_precompiled(model, &compiled);
        self.set("accel.analytic_uj", analytic.energy_uj());
        self.set("accel.analytic_latency_us", analytic.latency_ms() * 1e3);
        let crossbar = baseline::CrossbarModel::default().evaluate(model, options.act_bits);
        self.set("baseline.crossbar_uj", crossbar.energy_uj());
        Ok(())
    }
}

/// Samples of `report` whose logits differ from their reference.
pub fn mismatched_samples(report: &BatchReport, references: &[&InferenceTrace]) -> u64 {
    if report.samples.len() != references.len() {
        return references.len() as u64;
    }
    report
        .samples
        .iter()
        .zip(references)
        .filter(|(sample, reference)| {
            reference.output().map(|t| t.as_slice()) != Some(sample.logits.as_slice())
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let names = declared();
        assert_eq!(names.len(), HEAD.len() + VGG9_LAYERS.len() + TAIL.len());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &names {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn unrecorded_metrics_read_zero() {
        let mut layers = PerLayer::default();
        layers.set("serve.batches", 3.0);
        let metrics = layers.into_metrics();
        assert_eq!(metrics.len(), declared().len());
        assert!(metrics
            .iter()
            .all(|m| m.value == if m.name == "serve.batches" { 3.0 } else { 0.0 }));
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_metrics_are_refused() {
        PerLayer::default().set("core.nothing_ms", 1.0);
    }
}
