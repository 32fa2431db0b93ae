//! Per-layer engine replay: each weighted layer's partition units driven
//! through the public `apc`/`ap` calls, one layer at a time, so the engine
//! time of every layer can be timed on its own.
//!
//! The replay follows the functional backend's unit execution: the B samples
//! of a unit are stacked as B row segments of one array, the unit's prologue
//! and slice programs run through cached pass plans, and the accumulator
//! columns are read back and merged in unit order. Units run one after
//! another on the calling thread.

use accel::ArchConfig;
use ap::{ApEngine, Operand, PlanGeometry};
use apc::{CompileCache, CompilerOptions, LayerCompiler, TileGrid};
use cam::BitPlaneArray;
use tnn::im2col::{im2col_channel, Im2colSpec};
use tnn::infer::InferenceTrace;
use tnn::model::{ConvLayerInfo, ModelGraph, Source};
use tnn::Tensor;

/// The replay of one weighted layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReplay {
    /// Layer name.
    pub name: String,
    /// Wall-clock milliseconds spent in engine calls (array set-up, plan
    /// runs, column loads and reads) over all of the layer's units.
    pub engine_ms: f64,
    /// Output values that differ from the reference node output.
    pub mismatched: u64,
}

/// Replays every weighted layer of `model` for the batch `inputs`, feeding
/// each layer the reference activations of its source node, and checks each
/// layer's output against the reference output of that node.
///
/// # Errors
///
/// Returns the first compilation, shape or engine error.
pub fn replay_layers(
    model: &ModelGraph,
    arch: &ArchConfig,
    options: &CompilerOptions,
    grid: TileGrid,
    cache: &CompileCache,
    inputs: &[Tensor<i64>],
    references: &[InferenceTrace],
) -> Result<Vec<LayerReplay>, String> {
    model
        .conv_like_layers()
        .iter()
        .map(|info| {
            let source = model.nodes()[info.node_id]
                .inputs
                .first()
                .ok_or_else(|| format!("layer {} has no input", info.name))?;
            let layer_inputs: Vec<&Tensor<i64>> = (0..inputs.len())
                .map(|sample| match source {
                    Source::Input => &inputs[sample],
                    Source::Node(node) => &references[sample].node_outputs[*node],
                })
                .collect();
            let _span = telemetry::span(&format!("bench.ap.layer.{}", info.name));
            let (outputs, engine_ms) =
                replay_layer(info, arch, options, grid, cache, &layer_inputs)?;
            let mismatched = outputs
                .iter()
                .zip(references)
                .map(|(output, reference)| {
                    let expected = &reference.node_outputs[info.node_id];
                    if output.shape() != expected.shape() {
                        return output.as_slice().len() as u64;
                    }
                    output
                        .as_slice()
                        .iter()
                        .zip(expected.as_slice())
                        .filter(|(got, want)| got != want)
                        .count() as u64
                })
                .sum();
            Ok(LayerReplay {
                name: info.name.clone(),
                engine_ms,
                mismatched,
            })
        })
        .collect()
}

/// Replays one layer, returning its per-sample output tensors and the engine
/// milliseconds.
fn replay_layer(
    info: &ConvLayerInfo,
    arch: &ArchConfig,
    options: &CompilerOptions,
    grid: TileGrid,
    cache: &CompileCache,
    inputs: &[&Tensor<i64>],
) -> Result<(Vec<Tensor<i64>>, f64), String> {
    let err = |e: &dyn std::fmt::Display| format!("layer {}: {e}", info.name);
    let compiled = cache
        .compile(&LayerCompiler::new(*options), info)
        .map_err(|e| err(&e))?;
    let plan = cache.partition(info, options, grid).map_err(|e| err(&e))?;
    let layout = &compiled.layout;
    let slices = compiled
        .slices
        .as_ref()
        .ok_or_else(|| err(&"compiled without retained programs"))?;
    let spec = Im2colSpec {
        fh: info.kernel.0,
        fw: info.kernel.1,
        stride: info.stride,
        padding: info.padding,
    };
    // im2col patches per (sample, input channel); fully connected layers
    // arrive flattened and are viewed as (cin, h, w).
    let patches: Vec<Vec<Tensor<i64>>> = inputs
        .iter()
        .map(|input| {
            let shaped = Tensor::from_vec(
                vec![info.cin, info.input_hw.0, info.input_hw.1],
                input.as_slice().to_vec(),
            )?;
            (0..info.cin)
                .map(|channel| im2col_channel(&shaped, channel, spec))
                .collect::<tnn::Result<Vec<_>>>()
        })
        .collect::<tnn::Result<_>>()
        .map_err(|e| err(&e))?;

    let batch = inputs.len();
    let positions = info.output_hw.0 * info.output_hw.1;
    let mut outputs: Vec<Tensor<i64>> = (0..batch)
        .map(|_| Tensor::zeros(vec![info.cout, info.output_hw.0, info.output_hw.1]))
        .collect();
    let mut engine_ns = 0u128;
    let mut column = Vec::new();
    for unit in &plan.units {
        let rows = unit.rows.len();
        let start = std::time::Instant::now();
        let mut array = BitPlaneArray::new(
            rows * batch,
            layout.geometry.cols,
            layout.geometry.domains,
            arch.cam_tech,
        )
        .map_err(|e| err(&e))?;
        // Segment tracking attributes counters per sample, as the backend's
        // batched units do; it is part of the engine cost being timed.
        array.track_segments(rows).map_err(|e| err(&e))?;
        let mut engine = ApEngine::new(array);
        let geometry = PlanGeometry::of(engine.array());
        let prologue = apc::codegen::tile_prologue(layout, unit.outputs.len());
        engine
            .run_plan(&cache.plan(&prologue, geometry))
            .map_err(|e| err(&e))?;
        for slice in slices
            .iter()
            .filter(|s| s.tile == unit.col_split && unit.channels.contains(&s.channel))
        {
            for k in 0..layout.patch_size {
                column.clear();
                for sample_patches in &patches {
                    let channel = &sample_patches[slice.channel];
                    let width = channel.shape()[1];
                    column.extend_from_slice(
                        &channel.as_slice()[k * width + unit.rows.start..][..rows],
                    );
                }
                let operand = Operand::new(
                    k,
                    layout.channel_domain_base(slice.channel_in_group),
                    layout.act_bits,
                    false,
                );
                engine.load_column(&operand, &column).map_err(|e| err(&e))?;
            }
            engine
                .run_plan(&cache.plan(&slice.program, geometry))
                .map_err(|e| err(&e))?;
        }
        let mut columns = Vec::with_capacity(unit.outputs.len());
        for output in 0..unit.outputs.len() {
            let acc = Operand::new(layout.acc_col_start + output, 0, layout.acc_bits, true);
            columns.push(engine.read_column(&acc).map_err(|e| err(&e))?);
        }
        engine_ns += start.elapsed().as_nanos();
        for (offset, packed) in columns.iter().enumerate() {
            for (sample, values) in packed.chunks(rows).enumerate() {
                let out = outputs[sample].as_mut_slice();
                let target =
                    &mut out[(unit.outputs.start + offset) * positions + unit.rows.start..][..rows];
                // Channel-split units hold partial sums over disjoint input
                // channels; adding into the zeroed output merges them.
                for (slot, value) in target.iter_mut().zip(values) {
                    *slot += value;
                }
            }
        }
    }
    Ok((outputs, engine_ns as f64 / 1e6))
}
