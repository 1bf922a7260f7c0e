//! Post-training compilation of a derived network into a true integer
//! inference engine.
//!
//! The co-search picks a per-block weight precision Φ; [`QatModel`] trains
//! the derived network under those precisions with straight-through fake
//! quantization, but still executes in f32. This module closes the loop:
//! [`calibrate`] replays the float network over sample data to fix every
//! activation scale, and [`compile_quantized`] lowers the model into the
//! `edd-ir` graph, folds batch norms, quantizes weights per output channel
//! at each block's searched bits (bit-packing int4 for low-Φ blocks), and
//! builds the [`CompiledModel`] whose forward pass runs entirely in
//! int8/int4 × int8 → i32 arithmetic with fixed-point requantization —
//! the arithmetic the paper's FPGA/GPU implementations actually perform.
//!
//! [`CompiledModel`] implements [`edd_runtime::BatchModel`], so it drops
//! into an [`edd_runtime::InferServer`] for batched serving with
//! request/latency telemetry.

use crate::derive::DerivedArch;
use crate::lower::lower_to_graph;
use crate::qat::QatModel;
use edd_ir::{CompiledModel, PassConfig};
use edd_nn::{Module, QuantizableModule};
use edd_tensor::qkernel;
use edd_tensor::{Array, Result, Tensor, TensorError};

/// Weight precision ceiling of the integer engine: searched widths above
/// 8 bits execute as int8 (activations are always int8).
pub const ENGINE_MAX_BITS: u32 = 8;

/// Calibrated activation scales for one MBConv block.
#[derive(Debug, Clone, Copy)]
pub struct MbConvScales {
    /// Scale after the expand conv + BN + ReLU6 (when the block expands).
    pub expand_out: Option<f32>,
    /// Scale after the depthwise conv + BN + ReLU6.
    pub dw_out: f32,
    /// Scale of the block output (after the projection BN and, when the
    /// block has one, the residual add).
    pub block_out: f32,
}

/// Calibrated activation scales for every boundary of a derived network.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Scale of the quantized input image.
    pub input: f32,
    /// Scale after stem conv + BN + ReLU6.
    pub stem_out: f32,
    /// Per-block stage scales.
    pub blocks: Vec<MbConvScales>,
    /// Scale after head conv + BN + ReLU6 (also the pooled feature scale).
    pub head_out: f32,
}

/// Tracks the running max-|x| of one activation boundary.
#[derive(Debug, Clone, Copy, Default)]
struct RangeTracker(f32);

impl RangeTracker {
    fn observe(&mut self, t: &Tensor) {
        self.0 = self.0.max(qkernel::max_abs(t.value().data()));
    }

    fn scale(self) -> f32 {
        qkernel::scale_for(self.0, ENGINE_MAX_BITS)
    }
}

/// Replays the float network (eval mode, fake-quantized weights — the same
/// arithmetic QAT trained under) over `batches` and records the max-|x|
/// activation range at every stage boundary, returning per-stage int8
/// scales.
///
/// # Errors
///
/// Propagates forward-pass errors; rejects an empty batch list.
pub fn calibrate(model: &QatModel, batches: &[Array]) -> Result<Calibration> {
    if batches.is_empty() {
        return Err(TensorError::InvalidArgument(
            "calibrate: need at least one calibration batch".into(),
        ));
    }
    model.set_training(false);
    let nblocks = model.blocks().len();
    let mut r_input = RangeTracker::default();
    let mut r_stem = RangeTracker::default();
    let mut r_expand = vec![RangeTracker::default(); nblocks];
    let mut r_dw = vec![RangeTracker::default(); nblocks];
    let mut r_block = vec![RangeTracker::default(); nblocks];
    let mut r_head = RangeTracker::default();
    for x in batches {
        let xt = Tensor::constant(x.clone());
        r_input.observe(&xt);
        let mut h = model.stem().forward(&xt)?;
        h = model.stem_bn().forward(&h)?.relu6();
        r_stem.observe(&h);
        for (i, (mb, spec)) in model.blocks().iter().enumerate() {
            let block_in = h.clone();
            if let Some((conv, bn)) = mb.expand() {
                h = conv.forward_quantized(&h, *spec)?;
                h = bn.forward_relu6(&h)?;
                r_expand[i].observe(&h);
            }
            h = mb.depthwise().forward_quantized(&h, *spec)?;
            h = mb.dw_bn().forward_relu6(&h)?;
            r_dw[i].observe(&h);
            h = mb.project().forward_quantized(&h, *spec)?;
            h = mb.proj_bn().forward(&h)?;
            if mb.has_residual() {
                h = h.add(&block_in)?;
            }
            r_block[i].observe(&h);
        }
        h = model.head().forward(&h)?;
        h = model.head_bn().forward(&h)?.relu6();
        r_head.observe(&h);
    }
    let blocks = (0..nblocks)
        .map(|i| MbConvScales {
            expand_out: model.blocks()[i].0.expand().map(|_| r_expand[i].scale()),
            dw_out: r_dw[i].scale(),
            block_out: r_block[i].scale(),
        })
        .collect();
    Ok(Calibration {
        input: r_input.scale(),
        stem_out: r_stem.scale(),
        blocks,
        head_out: r_head.scale(),
    })
}

/// Compiles a trained [`QatModel`] into the integer inference engine at
/// the precisions searched in `arch`, with activation scales from `calib`:
/// int8 activations throughout, weights at each block's Φ (int4
/// bit-packed when ≤ 4 bits), i32 accumulators, fixed-point
/// requantization. Stem, head and classifier run at 8-bit weights,
/// mirroring [`QatModel`]'s full-precision first/last-layer convention.
///
/// This is [`lower_to_graph`] followed by every `edd-ir` pass
/// ([`PassConfig::all`]): the one place the default pass pipeline is
/// decided.
///
/// # Errors
///
/// Errors when `calib` was taken on a different architecture, and
/// propagates pass and lowering failures.
pub fn compile_quantized(
    model: &QatModel,
    arch: &DerivedArch,
    calib: &Calibration,
) -> Result<CompiledModel> {
    let graph = lower_to_graph(model, arch, calib)?;
    Ok(edd_ir::compile(&graph, &PassConfig::all())?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch_params::ArchParams;
    use crate::space::SearchSpace;
    use crate::target::DeviceTarget;
    use edd_hw::FpgaDevice;
    use edd_runtime::{BatchModel, InferServer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn derived() -> DerivedArch {
        let mut rng = StdRng::seed_from_u64(61);
        let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
        let target = DeviceTarget::FpgaPipelined(FpgaDevice::zc706());
        let arch = ArchParams::init(&space, &target, &mut rng);
        DerivedArch::from_params(&space, &target, &arch)
    }

    fn calib_batches(rng: &mut StdRng, n: usize) -> Vec<Array> {
        (0..n)
            .map(|_| Array::randn(&[2, 3, 16, 16], 1.0, rng))
            .collect()
    }

    /// Float reference: the QAT model's own (fake-quantized) eval forward.
    fn float_logits(model: &QatModel, x: &Array) -> Array {
        model
            .forward(&Tensor::constant(x.clone()))
            .unwrap()
            .value()
            .clone()
    }

    #[test]
    fn compiled_model_tracks_float_network() {
        let arch = derived();
        let mut rng = StdRng::seed_from_u64(62);
        let model = QatModel::new(&arch, &mut rng);
        model.set_training(false);
        let calib = calibrate(&model, &calib_batches(&mut rng, 3)).unwrap();
        let q = compile_quantized(&model, &arch, &calib).unwrap();
        let x = Array::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let got = q.forward(&x).unwrap();
        let want = float_logits(&model, &x);
        assert_eq!(got.shape(), [2, 4]);
        let scale = qkernel::max_abs(want.data()).max(0.1);
        let mut worst = 0.0f32;
        for (g, w) in got.data().iter().zip(want.data()) {
            worst = worst.max((g - w).abs());
        }
        assert!(
            worst <= scale * 0.35,
            "integer engine drifted: worst |Δ| {worst}, float magnitude {scale}"
        );
    }

    #[test]
    fn calibration_is_deterministic_and_positive() {
        let arch = derived();
        let mut rng = StdRng::seed_from_u64(63);
        let model = QatModel::new(&arch, &mut rng);
        let batches = calib_batches(&mut rng, 2);
        let a = calibrate(&model, &batches).unwrap();
        let b = calibrate(&model, &batches).unwrap();
        assert_eq!(a.input, b.input);
        assert_eq!(a.head_out, b.head_out);
        assert!(a.input > 0.0 && a.stem_out > 0.0 && a.head_out > 0.0);
        for s in &a.blocks {
            assert!(s.dw_out > 0.0 && s.block_out > 0.0);
        }
        assert!(calibrate(&model, &[]).is_err());
    }

    /// `(weight bits, storage bytes)` of every compiled conv, depthwise
    /// conv and classifier node, keeping only nodes `keep` accepts by name.
    fn param_nodes(q: &CompiledModel, keep: impl Fn(&str) -> bool) -> Vec<(Option<u32>, usize)> {
        use edd_ir::Op;
        q.graph()
            .nodes()
            .iter()
            .filter(|n| keep(&n.name))
            .filter_map(|n| {
                let bytes = match &n.op {
                    Op::QConv(s) => s.weights.storage_bytes(),
                    Op::QDwConv(s) => s.weights.storage_bytes(),
                    Op::QLinear(s) => s.weights.storage_bytes(),
                    _ => return None,
                };
                Some((n.bits, bytes))
            })
            .collect()
    }

    #[test]
    fn engine_clamps_searched_bits_to_int8() {
        let mut arch = derived();
        for b in &mut arch.blocks {
            b.quant_bits = 16;
        }
        let mut rng = StdRng::seed_from_u64(64);
        let model = QatModel::new(&arch, &mut rng);
        let calib = calibrate(&model, &calib_batches(&mut rng, 1)).unwrap();
        let q = compile_quantized(&model, &arch, &calib).unwrap();
        let nodes = param_nodes(&q, |_| true);
        // Stem, head, classifier and three convs per expanding block.
        assert!(nodes.len() >= 3 + 2 * arch.blocks.len(), "{nodes:?}");
        assert!(nodes.iter().all(|&(bits, _)| bits == Some(8)), "{nodes:?}");
    }

    #[test]
    fn int4_blocks_halve_block_weight_storage() {
        let mut rng = StdRng::seed_from_u64(65);
        let mut arch8 = derived();
        for b in &mut arch8.blocks {
            b.quant_bits = 8;
        }
        let mut arch4 = arch8.clone();
        for b in &mut arch4.blocks {
            b.quant_bits = 4;
        }
        let m8 = QatModel::new(&arch8, &mut StdRng::seed_from_u64(66));
        let m4 = QatModel::new(&arch4, &mut StdRng::seed_from_u64(66));
        let batches = calib_batches(&mut rng, 1);
        let c8 = calibrate(&m8, &batches).unwrap();
        let c4 = calibrate(&m4, &batches).unwrap();
        let q8 = compile_quantized(&m8, &arch8, &c8).unwrap();
        let q4 = compile_quantized(&m4, &arch4, &c4).unwrap();
        let is_block = |name: &str| name.starts_with("block");
        let blocks4 = param_nodes(&q4, is_block);
        assert!(blocks4.iter().all(|&(bits, _)| bits == Some(4)));
        // Stem/head/classifier stay int8 in both, so the total shrinks by
        // exactly half the block weight bytes.
        let block8: usize = param_nodes(&q8, is_block).iter().map(|n| n.1).sum();
        let block4: usize = blocks4.iter().map(|n| n.1).sum();
        assert_eq!(block4 * 2, block8 + block8 % 2);
        let rest = |q: &CompiledModel| param_nodes(q, |n| !is_block(n));
        assert_eq!(rest(&q4), rest(&q8));
        assert_eq!(
            q8.graph().weight_bytes() - q4.graph().weight_bytes(),
            block8 - block4
        );
    }

    #[test]
    fn serves_through_infer_server_with_telemetry_counters() {
        let arch = derived();
        let mut rng = StdRng::seed_from_u64(67);
        let model = QatModel::new(&arch, &mut rng);
        let calib = calibrate(&model, &calib_batches(&mut rng, 1)).unwrap();
        let q = compile_quantized(&model, &arch, &calib).unwrap();
        assert_eq!(q.image_len(), 3 * 16 * 16);
        assert_eq!(BatchModel::num_classes(&q), 4);
        let server = InferServer::new(q);
        let images: Vec<f32> = Array::randn(&[2, 3, 16, 16], 1.0, &mut rng).data().to_vec();
        let logits = server.infer(&images, 2).unwrap();
        assert_eq!(logits.len(), 2 * 4);
        // A second, different batch size through the same server.
        server.infer(&images[..3 * 16 * 16], 1).unwrap();
        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.images, 3);
        assert!(server.infer(&images[..10], 1).is_err());
    }
}
