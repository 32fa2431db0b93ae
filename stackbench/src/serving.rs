//! `serve-micro-poisson`: a threaded one-replica `serve::Server` with dynamic
//! batching serving `micro_cnn` to open-loop Poisson arrivals.
//!
//! Batches are tiny (about two requests) and the model is tiny, so fixed
//! per-call costs of `core`/`ap` dominate, with batching and queueing in
//! `serve` on top. Each request is timed from when it was due, so a stall of
//! the server or of the generator shows in the latency of later requests.

use crate::inputs::{activations, poisson_schedule, SplitMix64};
use crate::layers::PerLayer;
use crate::report::{
    dump_trace, print_overhead, start_tracing, traced, Metric, Outcome, RunConfig, SetupPlan,
};
use crate::stats::{nearest_rank, samples_beyond};
use crate::{median_or_zero, procfs, Stack};
use apc::{CompileCache, TileGrid};
use camdnn::FunctionalBackend;
use serve::{BatchingPolicy, Completion, ExecutedBatch, RequestExecutor, ServeConfig, Server};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tnn::infer::InferenceTrace;
use tnn::model::{micro_cnn, ModelGraph};
use tnn::Tensor;

/// Workload name.
pub const NAME: &str = "serve-micro-poisson";
/// Offered load, requests per second.
const RATE_PER_S: f64 = 1000.0;
/// Batching policy: close a batch at 16 requests or 1000 µs after its
/// oldest request arrived.
const MAX_BATCH: usize = 16;
const MAX_DELAY_US: u64 = 1000;
/// Queue admission limit, far above any backlog the offered load builds, so
/// no request is refused.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Distinct request payloads; the request count is a whole multiple.
const POOL: usize = 64;
/// Model parameters: convolution width, weight sparsity and weight seed.
const CHANNELS: usize = 8;
const SPARSITY: f64 = 0.8;
const WEIGHT_SEED: u64 = 1;
/// Set-ups per run: each takes tens of milliseconds, so groups of five are
/// averaged first.
const SETUP: SetupPlan = SetupPlan {
    groups: 5,
    per_group: 5,
};

/// The modeled figures of one served batch.
#[derive(Debug, Clone, Copy)]
struct BatchLog {
    size: usize,
    /// Sum of the batch's per-sample (solo-equivalent) modeled energies.
    sample_energy_uj: f64,
}

/// Executes served batches on the functional backend, logging their modeled
/// figures.
struct BenchExecutor {
    backend: FunctionalBackend,
    model: Arc<ModelGraph>,
    cache: Arc<CompileCache>,
    log: Mutex<Vec<BatchLog>>,
}

impl RequestExecutor for BenchExecutor {
    fn name(&self) -> String {
        "stackbench-functional".to_string()
    }

    fn execute(&self, inputs: &[Tensor<i64>]) -> serve::Result<ExecutedBatch> {
        let (report, _) = traced("bench.core.run_batch", || {
            self.backend.run_batch(&self.model, inputs, &self.cache)
        });
        let report = report?;
        self.log.lock().expect("batch log poisoned").push(BatchLog {
            size: report.batch_size,
            sample_energy_uj: report.samples.iter().map(|s| s.energy_uj).sum(),
        });
        Ok(ExecutedBatch {
            latency_ns: (report.latency_ms * 1e6).round() as u64,
            bit_exact: Some(report.is_bit_exact()),
            logits: Some(report.samples.into_iter().map(|s| s.logits).collect()),
        })
    }
}

/// One request of a load, as the client saw it.
struct Answered {
    index: usize,
    /// Nanoseconds the generator submitted it after it was due.
    late_ns: u64,
    completion: Option<Completion>,
}

/// One open-loop load.
struct Load {
    answered: Vec<Answered>,
    cpu_ms: f64,
}

impl Load {
    /// Latency of every answered request from when it was due, in ms.
    fn latencies_ms(&self) -> Vec<f64> {
        self.answered
            .iter()
            .filter_map(|a| {
                let c = a.completion.as_ref()?;
                Some((a.late_ns as f64 + c.wall_latency.as_nanos() as f64) / 1e6)
            })
            .collect()
    }

    fn completions(&self) -> impl Iterator<Item = &Completion> {
        self.answered.iter().filter_map(|a| a.completion.as_ref())
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up, reference or shutdown failure.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let stack = Stack::new(TileGrid::new(1, 1));
    let act_bits = stack.act_bits();
    let shape = build_model().input_shape();
    let mut rng = SplitMix64::new(config.seed, 3);
    let pool = activations(shape, act_bits, POOL, &mut rng);

    // Set-up: build the model, compile every layer and the plans of every
    // batch size the batcher can close, and start the server.
    let (setup_s, (server, executor)) = SETUP.run(|| start(&stack, &pool))?;
    executor.log.lock().expect("batch log poisoned").clear();

    let references: Vec<InferenceTrace> =
        tnn::infer::run_batch(&executor.model, &pool, Some(act_bits))
            .map_err(|e| format!("reference: {e}"))?;

    let (untraced_len, traced_len) = config.windows();
    let untraced = offer(
        &server,
        &pool,
        poisson_schedule(config.seed, RATE_PER_S, requests(untraced_len)),
    );
    let untraced_log = std::mem::take(&mut *executor.log.lock().expect("batch log poisoned"));
    let untraced_batches = server.counters().batches;
    let traced_load = config.trace.then(|| {
        start_tracing();
        let schedule = poisson_schedule(config.seed ^ 0x7ACE, RATE_PER_S, requests(traced_len));
        let load = offer(&server, &pool, schedule);
        telemetry::set_enabled(false);
        load
    });
    shut_down(&server)?;
    let counters = server.counters();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut seen = std::collections::HashSet::new();
    for answered in untraced
        .answered
        .iter()
        .chain(traced_load.iter().flat_map(|l| &l.answered))
    {
        attempted += 1;
        let ok = answered.completion.as_ref().is_some_and(|c| {
            seen.insert(c.id)
                && c.logits.as_deref()
                    == references[answered.index % POOL]
                        .output()
                        .map(|t| t.as_slice())
        });
        if !ok {
            failed += 1;
        }
    }
    // The server saw every request the client sent. A refused or unanswered
    // request is already a failed operation above.
    let correct = counters.submitted + counters.rejected == attempted;

    if !config.trace {
        return Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics: end_to_end(&untraced, &untraced_log, setup_s),
        });
    }

    let traced_load = traced_load.expect("traced run");
    let traced_batches = counters.batches - untraced_batches;
    print_overhead(
        "latency_ms",
        "ms",
        nearest_rank(&untraced.latencies_ms(), 50.0).unwrap_or(0.0),
        nearest_rank(&traced_load.latencies_ms(), 50.0).unwrap_or(0.0),
    );
    let mut layers = PerLayer::default();
    layers.set_recorder_figures(traced_batches as usize);
    let served = traced_load.completions().count();
    let phase = |pick: fn(&Completion) -> u64| {
        let values: Vec<f64> = traced_load
            .completions()
            .map(|c| pick(c) as f64 / 1e6)
            .collect();
        median_or_zero(&values)
    };
    layers.set("serve.queue_wait_ms", phase(|c| c.phases.queue_wait_ns));
    layers.set("serve.batch_wait_ms", phase(|c| c.phases.batch_wait_ns));
    layers.set("serve.execute_ms", phase(|c| c.phases.execute_ns));
    layers.set("serve.merge_ms", phase(|c| c.phases.merge_ns));
    layers.set("serve.batches", traced_batches as f64);
    let mean_batch = served as f64 / traced_batches.max(1) as f64;
    layers.set("serve.mean_batch_size", mean_batch);
    let late_max = traced_load
        .answered
        .iter()
        .map(|a| a.late_ns)
        .max()
        .unwrap_or(0);
    layers.set("serve.gen_late_max_ms", late_max as f64 / 1e6);
    let latencies = traced_load.latencies_ms();
    if samples_beyond(latencies.len(), 99.0) >= 10 {
        layers.set(
            "serve.p99_ms",
            nearest_rank(&latencies, 99.0).unwrap_or(0.0),
        );
    }

    // The served model offline, at the mean batch size of the traced load.
    telemetry::set_enabled(true);
    let size = (mean_batch.round() as usize).clamp(1, MAX_BATCH);
    let batch = &pool[..size];
    let mut offline_ms = Vec::new();
    let mut offline_report = None;
    for _ in 0..20 {
        let (report, ms) = traced("bench.core.run_batch_offline", || {
            stack
                .backend
                .run_batch(&executor.model, batch, &executor.cache)
        });
        offline_ms.push(ms);
        offline_report = Some(report.map_err(|e| format!("offline batch: {e}"))?);
    }
    layers.set("core.run_batch_ms", median_or_zero(&offline_ms));
    if let Some(report) = &offline_report {
        layers.set_report_counters(report);
    }
    let (_, reference_ms) = traced("bench.tnn.reference", || {
        tnn::infer::run_batch(&executor.model, batch, Some(act_bits))
    });
    layers.set("tnn.reference_ms", reference_ms);
    layers
        .set_analytic(&executor.model, &stack, &executor.cache)
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

fn build_model() -> ModelGraph {
    micro_cnn("micro", CHANNELS, SPARSITY, WEIGHT_SEED)
}

/// Requests offered in a window of `length`: the scheduled count at the
/// offered rate, rounded up to whole rounds of the payload pool.
fn requests(length: Duration) -> usize {
    let scheduled = (length.as_secs_f64() * RATE_PER_S).ceil() as usize;
    scheduled.div_ceil(POOL).max(1) * POOL
}

/// Builds and warms the served stack and starts its server.
fn start(stack: &Stack, pool: &[Tensor<i64>]) -> Result<(Server, Arc<BenchExecutor>), String> {
    let model = Arc::new(build_model());
    let cache = Arc::new(CompileCache::new());
    for size in 1..=MAX_BATCH {
        stack
            .backend
            .run_batch(&model, &pool[..size], &cache)
            .map_err(|e| format!("warm-up batch of {size}: {e}"))?;
    }
    let executor = Arc::new(BenchExecutor {
        backend: stack.backend.clone(),
        model,
        cache,
        log: Mutex::new(Vec::new()),
    });
    let config = ServeConfig::default()
        .with_replicas(1)
        .with_batching(BatchingPolicy::new(MAX_BATCH, MAX_DELAY_US))
        .with_queue_capacity(QUEUE_CAPACITY);
    let server =
        Server::start(executor.clone(), config).map_err(|e| format!("server start: {e}"))?;
    Ok((server, executor))
}

fn shut_down(server: &Server) -> Result<(), String> {
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))
}

/// Offers one open-loop load: a generator thread submits request `i` (payload
/// `i mod POOL`) at its due time `schedule[i]`, never waiting for answers,
/// while this thread collects the answers.
fn offer(server: &Server, pool: &[Tensor<i64>], schedule: Vec<u64>) -> Load {
    let cpu_before = procfs::cpu_ms();
    let (tx, rx) = channel();
    let answered = std::thread::scope(|scope| {
        scope.spawn(move || {
            let start = Instant::now();
            for (index, &due_ns) in schedule.iter().enumerate() {
                let due = start + Duration::from_nanos(due_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submitted = Instant::now();
                let late_ns = submitted.saturating_duration_since(due).as_nanos() as u64;
                let ticket = server.try_submit(pool[index % pool.len()].clone()).ok();
                if tx.send((index, late_ns, ticket)).is_err() {
                    return;
                }
            }
        });
        rx.iter()
            .map(|(index, late_ns, ticket)| Answered {
                index,
                late_ns,
                completion: ticket.and_then(|t: serve::Ticket| {
                    let id = t.id();
                    t.wait().ok().filter(|c| c.id == id)
                }),
            })
            .collect::<Vec<_>>()
    });
    Load {
        answered,
        cpu_ms: procfs::cpu_ms() - cpu_before,
    }
}

/// The end-to-end metrics of the untraced load.
fn end_to_end(load: &Load, log: &[BatchLog], setup_s: f64) -> Vec<Metric> {
    let latencies = load.latencies_ms();
    let samples: usize = log.iter().map(|b| b.size).sum();
    let energy_uj: f64 = log.iter().map(|b| b.sample_energy_uj).sum();
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
        Metric::new(
            "latency_ms",
            nearest_rank(&latencies, 50.0).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "cpu_ms_per_sample",
            load.cpu_ms / load.answered.len().max(1) as f64,
            "ms",
        ),
        Metric::new(
            "model_uj_per_sample",
            energy_uj / samples.max(1) as f64,
            "uJ",
        ),
    ]
}
