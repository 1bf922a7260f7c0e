//! Executable form of a lowered graph.
//!
//! [`CompiledModel::from_graph`] type-checks a quantized graph, rebuilds
//! each spec's microkernel-native caches via the `from_spec` constructors
//! (`QConv2d`, `QDwConv2d`, `QLinear`), and precomputes a liveness plan so
//! intermediate activations are dropped at their last use. Execution order
//! is ascending node id — valid by the graph's forward-edges invariant —
//! so the forward pass is a plain loop with no scheduling. The same plan
//! lets a residual add write into its first operand's buffer when that
//! operand dies at the add, so the block output reuses the projection's
//! activation instead of allocating a fresh one.
//!
//! This is the only integer executor: every engine — compiled in process
//! by `edd_core::compile_quantized` or hot-loaded from an artifact — runs
//! here. The model implements [`edd_runtime::BatchModel`], which is all
//! the serving layer needs to put it behind `InferServer` or the sharded
//! `serve::Server`.

use crate::graph::{DType, Graph, Op, QAddOp};
use edd_nn::{q_global_avg_pool, QConv2d, QDwConv2d, QLinear, QTensor, ACT_QMAX};
use edd_runtime::{telemetry, BatchModel};
use edd_tensor::{Array, Result, TensorError};

/// Per-node executor, parallel to the graph's node list.
enum Layer {
    /// Unreachable node (or the input placeholder) — nothing to run.
    Skip,
    /// The graph input: seeds the value table with the float batch.
    Input,
    /// Float → int8 boundary.
    Quantize { scale: f32 },
    /// Quantized convolution with rebuilt weight panels.
    Conv(QConv2d),
    /// Quantized depthwise convolution with rebuilt taps.
    Dw(QDwConv2d),
    /// Standalone integer ReLU6 clamp.
    Relu6 { hi: i8 },
    /// Integer residual add.
    Add(QAddOp),
    /// Integer global average pool.
    Gap,
    /// Quantized classifier head with rebuilt panels.
    Linear(QLinear),
}

/// An intermediate value during a forward pass.
enum Value {
    F(Array),
    Q(QTensor),
}

impl Value {
    fn as_f(&self) -> Result<&Array> {
        match self {
            Value::F(a) => Ok(a),
            Value::Q(_) => Err(TensorError::InvalidArgument(
                "expected a float value, found a quantized one".into(),
            )),
        }
    }

    fn as_q(&self) -> Result<&QTensor> {
        match self {
            Value::Q(q) => Ok(q),
            Value::F(_) => Err(TensorError::InvalidArgument(
                "expected a quantized value, found a float one".into(),
            )),
        }
    }
}

/// A lowered graph compiled into runnable layers.
pub struct CompiledModel {
    graph: Graph,
    layers: Vec<Layer>,
    /// `last_use[i]` = id of the last node reading `i`'s value (or `i`
    /// itself when nothing does); the value is freed right after.
    last_use: Vec<usize>,
    input_shape: [usize; 3],
    num_classes: usize,
}

impl std::fmt::Debug for CompiledModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledModel")
            .field("name", &self.graph.meta.name)
            .field("nodes", &self.graph.len())
            .field("input_shape", &self.input_shape)
            .field("num_classes", &self.num_classes)
            .finish_non_exhaustive()
    }
}

impl CompiledModel {
    /// Builds the executable model from a lowered graph, validating facts
    /// and rebuilding every layer's execution caches from its spec.
    ///
    /// # Errors
    ///
    /// Errors when the graph still contains float ops, when fact
    /// inference fails, or when the output is not `[num_classes]` f32
    /// logits.
    pub fn from_graph(graph: Graph) -> Result<Self> {
        let facts = graph.facts()?;
        let out = graph.output()?;
        if facts[out].dtype != DType::F32 || facts[out].shape != vec![graph.meta.num_classes] {
            return Err(TensorError::InvalidArgument(format!(
                "compiled graph output is {:?} {:?}, expected [{}] f32 logits",
                facts[out].dtype, facts[out].shape, graph.meta.num_classes
            )));
        }
        let reachable = graph.reachable()?;
        let mut layers = Vec::with_capacity(graph.len());
        for (id, n) in graph.nodes().iter().enumerate() {
            if !reachable[id] {
                layers.push(Layer::Skip);
                continue;
            }
            let layer = match &n.op {
                Op::Input => Layer::Input,
                Op::Quantize { scale } => Layer::Quantize { scale: *scale },
                Op::QConv(s) => Layer::Conv(QConv2d::from_spec(s.as_ref().clone())),
                Op::QDwConv(s) => Layer::Dw(QDwConv2d::from_spec(s.as_ref().clone())),
                Op::QRelu6 { hi } => Layer::Relu6 { hi: *hi },
                Op::QAdd(a) => Layer::Add(*a.as_ref()),
                Op::QGlobalAvgPool => Layer::Gap,
                Op::QLinear(s) => Layer::Linear(QLinear::from_spec(s.as_ref().clone())),
                float => {
                    return Err(TensorError::InvalidArgument(format!(
                        "cannot execute unlowered op `{}` at node `{}`; run the quantize \
                         lowering first",
                        float.mnemonic(),
                        n.name
                    )));
                }
            };
            layers.push(layer);
        }
        let mut last_use: Vec<usize> = (0..graph.len()).collect();
        for (id, n) in graph.nodes().iter().enumerate() {
            if !reachable[id] {
                continue;
            }
            for &i in &n.inputs {
                last_use[i] = last_use[i].max(id);
            }
        }
        // The output must survive the whole loop.
        last_use[out] = graph.len();
        let input_shape = graph.meta.input_shape;
        let num_classes = graph.meta.num_classes;
        Ok(CompiledModel {
            graph,
            layers,
            last_use,
            input_shape,
            num_classes,
        })
    }

    /// The lowered graph this model executes (what artifacts serialize).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Model name from the graph metadata.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.graph.meta.name
    }

    /// Runs the model on an NCHW float batch, returning
    /// `[batch, num_classes]` logits.
    ///
    /// # Errors
    ///
    /// Rejects inputs whose shape does not match the compiled
    /// `[b, c, h, w]` and propagates layer errors.
    pub fn forward(&self, x: &Array) -> Result<Array> {
        let [c, h, w] = self.input_shape;
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != c || shape[2] != h || shape[3] != w {
            return Err(TensorError::InvalidArgument(format!(
                "compiled model expects [b, {c}, {h}, {w}] input, got {shape:?}"
            )));
        }
        let batch = shape[0];
        let mut values: Vec<Option<Value>> = (0..self.graph.len()).map(|_| None).collect();
        for (id, layer) in self.layers.iter().enumerate() {
            let node = self.graph.node(id);
            let produced = match layer {
                Layer::Skip => continue,
                Layer::Input => Value::F(x.clone()),
                Layer::Quantize { scale } => {
                    let f = value(&values, node.inputs[0])?.as_f()?;
                    Value::Q(QTensor::quantize(f, *scale))
                }
                Layer::Conv(l) => Value::Q(l.forward(value(&values, node.inputs[0])?.as_q()?)?),
                Layer::Dw(l) => Value::Q(l.forward(value(&values, node.inputs[0])?.as_q()?)?),
                Layer::Relu6 { hi } => {
                    let q = value(&values, node.inputs[0])?.as_q()?;
                    let data = q.data.iter().map(|&v| v.clamp(0, *hi)).collect();
                    Value::Q(QTensor {
                        data,
                        shape: q.shape.clone(),
                        scale: q.scale,
                    })
                }
                Layer::Add(op) => {
                    let (ia, ib) = (node.inputs[0], node.inputs[1]);
                    // Operand a dies here (and is not also operand b):
                    // add into its buffer instead of allocating the sum.
                    let mut a = if self.last_use[ia] == id && ia != ib {
                        take_q(&mut values, ia)?
                    } else {
                        value(&values, ia)?.as_q()?.clone()
                    };
                    qadd_in_place(op, &mut a, value(&values, ib)?.as_q()?)?;
                    Value::Q(a)
                }
                Layer::Gap => Value::Q(q_global_avg_pool(value(&values, node.inputs[0])?.as_q()?)?),
                Layer::Linear(l) => Value::F(l.forward(value(&values, node.inputs[0])?.as_q()?)?),
            };
            // Free operands whose last consumer was this node.
            for &i in &node.inputs {
                if self.last_use[i] == id {
                    values[i] = None;
                }
            }
            if self.last_use[id] >= id {
                values[id] = Some(produced);
            }
        }
        let out = self.graph.output()?;
        let logits = values[out]
            .take()
            .ok_or_else(|| TensorError::InvalidArgument("output was never computed".into()))?;
        let logits = logits.as_f()?;
        debug_assert_eq!(logits.shape(), &[batch, self.num_classes]);
        Ok(logits.clone())
    }
}

/// Reads a live value from the table (errors on a liveness-plan bug
/// rather than panicking).
fn value(values: &[Option<Value>], id: usize) -> Result<&Value> {
    values[id].as_ref().ok_or_else(|| freed(id))
}

fn freed(id: usize) -> TensorError {
    TensorError::InvalidArgument(format!("value of node {id} was freed before its last use"))
}

/// Moves a quantized value out of the table at its last use.
fn take_q(values: &mut [Option<Value>], id: usize) -> Result<QTensor> {
    match values[id].take() {
        Some(Value::Q(q)) => Ok(q),
        Some(Value::F(_)) => Err(TensorError::InvalidArgument(
            "expected a quantized value, found a float one".into(),
        )),
        None => Err(freed(id)),
    }
}

/// The integer residual add, written into `a`: each operand is brought
/// onto the output grid by its optional requant, summed in i32, and
/// clamped to the int8 activation range. The requant options are matched
/// once per tensor, so the element loop carries no branch on them.
fn qadd_in_place(op: &QAddOp, a: &mut QTensor, b: &QTensor) -> Result<()> {
    fn sum(a: &mut [i8], b: &[i8], fa: impl Fn(i32) -> i32, fb: impl Fn(i32) -> i32) {
        for (va, &vb) in a.iter_mut().zip(b) {
            *va = (fa(i32::from(*va)) + fb(i32::from(vb))).clamp(-ACT_QMAX, ACT_QMAX) as i8;
        }
    }
    if a.shape != b.shape {
        return Err(TensorError::InvalidArgument(format!(
            "qadd operand shapes differ: {:?} vs {:?}",
            a.shape, b.shape
        )));
    }
    let raw = |v: i32| v;
    match (op.rq_a, op.rq_b) {
        (None, None) => sum(&mut a.data, &b.data, raw, raw),
        (None, Some(rb)) => sum(&mut a.data, &b.data, raw, |v| rb.apply(v)),
        (Some(ra), None) => sum(&mut a.data, &b.data, |v| ra.apply(v), raw),
        (Some(ra), Some(rb)) => sum(&mut a.data, &b.data, |v| ra.apply(v), |v| rb.apply(v)),
    }
    a.scale = op.out_scale;
    Ok(())
}

impl BatchModel for CompiledModel {
    type Error = TensorError;

    fn image_len(&self) -> usize {
        let [c, h, w] = self.input_shape;
        c * h * w
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>> {
        let expect = batch * self.image_len();
        if images.len() != expect {
            return Err(TensorError::InvalidArgument(format!(
                "infer_batch: expected {expect} values for batch {batch}, got {}",
                images.len()
            )));
        }
        let [c, h, w] = self.input_shape;
        let x = Array::from_vec(images.to_vec(), &[batch, c, h, w])?;
        let logits = self.forward(&x)?.into_vec();
        if telemetry::enabled() {
            mirror_kernel_gauges();
        }
        Ok(logits)
    }
}

/// Mirrors the kernel-selection and panel-cache counters into the
/// `infer.*` telemetry namespace, so serving traces show which GEMM paths
/// the engine took next to the latency the server records. The snapshot
/// is cumulative across the process, so gauges (latest value wins) are
/// the right shape; counters would double-add on every request.
fn mirror_kernel_gauges() {
    let ks = edd_tensor::stats::snapshot();
    telemetry::gauge("infer.select_vecmat", ks.select_vecmat);
    telemetry::gauge("infer.select_skinny_n", ks.select_skinny_n);
    telemetry::gauge("infer.select_square", ks.select_square);
    telemetry::gauge("infer.select_conv", ks.select_conv);
    telemetry::gauge("infer.select_generic", ks.select_generic);
    telemetry::gauge("infer.pack_panels_built", ks.pack_panels_built);
    telemetry::gauge("infer.pack_panel_hits", ks.pack_panel_hits);
    telemetry::gauge("infer.pack_panel_misses", ks.pack_panel_misses);
}

// Compiled models are shared immutably across serving shards; keep that
// property checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledModel>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ConvOp, GraphMeta, LinearOp, Node};
    use crate::passes::{compile, PassConfig};
    use edd_nn::QLinearSpec;
    use edd_tensor::qkernel::Requant;

    /// Small annotated float graph exercising every executable op
    /// (conv, relu6, residual add, gap, linear).
    fn float_graph() -> Graph {
        let mut g = Graph::new(GraphMeta {
            name: "exec-test".into(),
            input_shape: [2, 5, 5],
            num_classes: 3,
        });
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / f64::from(1u32 << 21) - 16.0) as f32 * 0.04
        };
        let conv =
            |out_c: usize, in_c: usize, k: usize, pad: usize, next: &mut dyn FnMut() -> f32| {
                Op::Conv2d(Box::new(ConvOp {
                    w: (0..out_c * in_c * k * k).map(|_| next()).collect(),
                    out_channels: out_c,
                    in_channels: in_c,
                    kernel: k,
                    stride: 1,
                    padding: pad,
                    bias: None,
                    relu6: false,
                }))
            };
        let add = |g: &mut Graph, name: &str, op: Op, inputs: Vec<usize>, scale: f32| {
            g.add(Node {
                name: name.into(),
                op,
                inputs,
                scale: Some(scale),
                bits: None,
            })
            .unwrap()
        };
        let i = add(&mut g, "in", Op::Input, vec![], 0.05);
        let c1 = add(&mut g, "c1", conv(4, 2, 3, 1, &mut next), vec![i], 0.04);
        let r1 = add(&mut g, "r1", Op::Relu6, vec![c1], 0.04);
        let c2 = add(&mut g, "c2", conv(4, 4, 1, 0, &mut next), vec![r1], 0.04);
        let res = add(&mut g, "res", Op::Add, vec![c2, r1], 0.05);
        let p = add(&mut g, "gap", Op::GlobalAvgPool, vec![res], 0.05);
        let fc = add(
            &mut g,
            "fc",
            Op::Linear(Box::new(LinearOp {
                w: (0..4 * 3).map(|_| next()).collect(),
                in_features: 4,
                out_features: 3,
                bias: vec![0.05, -0.1, 0.0],
            })),
            vec![p],
            0.05,
        );
        g.set_output(fc).unwrap();
        g
    }

    fn input(batch: usize) -> Array {
        let n = batch * 2 * 5 * 5;
        let data: Vec<f32> = (0..n)
            .map(|i| ((i * 37 % 113) as f32 - 56.0) * 0.01)
            .collect();
        Array::from_vec(data, &[batch, 2, 5, 5]).unwrap()
    }

    #[test]
    fn pass_configs_agree_bitwise() {
        let g = float_graph();
        let (reference, _) = compile(&g, &PassConfig::none()).unwrap();
        let x = input(3);
        let want = reference.forward(&x).unwrap();
        for cfg in [
            PassConfig::all(),
            PassConfig {
                bypass_1x1: false,
                ..PassConfig::all()
            },
            PassConfig {
                relu6_fuse: false,
                ..PassConfig::all()
            },
        ] {
            let (m, _) = compile(&g, &cfg).unwrap();
            let got = m.forward(&x).unwrap();
            assert_eq!(
                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "outputs diverge under {cfg:?}"
            );
        }
    }

    #[test]
    fn batch_model_contract() {
        let (m, _) = compile(&float_graph(), &PassConfig::all()).unwrap();
        assert_eq!(m.image_len(), 2 * 5 * 5);
        assert_eq!(m.num_classes(), 3);
        let x = input(2);
        let logits = m.infer_batch(x.data(), 2).unwrap();
        assert_eq!(logits.len(), 6);
        assert!(m.infer_batch(x.data(), 3).is_err());
        // Per-image results match the batched forward (batch invariance).
        let one = m.infer_batch(&x.data()[..m.image_len()], 1).unwrap();
        assert_eq!(
            one.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            logits[..3].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Nodes of a quantized `[4, 1, 1]` → 4-logit graph. With one pixel
    /// per channel pooling is the identity, and an identity classifier
    /// makes each logit a fixed function of one residual-add output.
    struct QGraph(Graph);

    impl QGraph {
        fn new() -> Self {
            let mut g = Graph::new(GraphMeta {
                name: "qadd-test".into(),
                input_shape: [4, 1, 1],
                num_classes: 4,
            });
            g.add(Node {
                name: "in".into(),
                op: Op::Input,
                inputs: vec![],
                scale: None,
                bits: None,
            })
            .unwrap();
            QGraph(g)
        }

        fn push(&mut self, op: Op, inputs: Vec<usize>) -> usize {
            let name = format!("n{}", self.0.len());
            self.0
                .add(Node {
                    name,
                    op,
                    inputs,
                    scale: None,
                    bits: None,
                })
                .unwrap()
        }

        fn quantize(&mut self, scale: f32) -> usize {
            self.push(Op::Quantize { scale }, vec![0])
        }

        /// `a + b` onto the 0.04 grid, each operand rescaled from `s_a`/`s_b`.
        fn add(&mut self, a: usize, b: usize, s_a: f32, s_b: f32) -> usize {
            let rq = |s: f32| Some(Requant::from_scale(f64::from(s) / 0.04));
            self.push(
                Op::QAdd(Box::new(QAddOp {
                    rq_a: rq(s_a),
                    rq_b: rq(s_b),
                    out_scale: 0.04,
                })),
                vec![a, b],
            )
        }

        fn finish(mut self, x: usize) -> CompiledModel {
            let gap = self.push(Op::QGlobalAvgPool, vec![x]);
            let eye: Vec<f32> = (0..16)
                .map(|i| if i % 5 == 0 { 1.0 } else { 0.0 })
                .collect();
            let fc = QLinearSpec::quantize(&eye, 4, 4, &[0.0; 4], 8, 0.04);
            self.push(Op::QLinear(Box::new(fc)), vec![gap]);
            CompiledModel::from_graph(self.0).unwrap()
        }
    }

    /// Values that saturate both the input grids and the residual sum.
    fn qadd_input() -> Array {
        let v = vec![-9.0, -1.3, 0.4, 7.7, 2.2, -0.05, 6.35, -6.4];
        Array::from_vec(v, &[2, 4, 1, 1]).unwrap()
    }

    fn logit_bits(m: &CompiledModel) -> Vec<u32> {
        let y = m.forward(&qadd_input()).unwrap();
        y.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn qadd_in_place_and_copy_branches_agree_bitwise() {
        // In place: `a` dies at the first add, `a2` is its twin.
        let mut g = QGraph::new();
        let (a, b, a2) = (g.quantize(0.05), g.quantize(0.02), g.quantize(0.05));
        let s = g.add(a, b, 0.05, 0.02);
        let t = g.add(s, a2, 0.04, 0.05);
        let in_place = g.finish(t);
        // Copy: `a` is read again by the second add, so the first copies.
        let mut g = QGraph::new();
        let (a, b) = (g.quantize(0.05), g.quantize(0.02));
        let s = g.add(a, b, 0.05, 0.02);
        let t = g.add(s, a, 0.04, 0.05);
        let copied = g.finish(t);
        assert_eq!(logit_bits(&in_place), logit_bits(&copied));

        // `x + x` must copy (the operand is also the second input); it
        // matches the same sum over two distinct equal operands.
        let mut g = QGraph::new();
        let a = g.quantize(0.05);
        let s = g.add(a, a, 0.05, 0.05);
        let doubled = g.finish(s);
        let mut g = QGraph::new();
        let (a, a2) = (g.quantize(0.05), g.quantize(0.05));
        let s = g.add(a, a2, 0.05, 0.05);
        let twins = g.finish(s);
        assert_eq!(logit_bits(&doubled), logit_bits(&twins));
        // Saturated sums clamp to the symmetric int8 range: 2·127 steps of
        // 0.05 is far past 127 steps of 0.04.
        let top = 127.0 * 0.04 * 1.001;
        let y = doubled.forward(&qadd_input()).unwrap();
        assert!(y.data().iter().all(|v| v.abs() <= top), "{:?}", y.data());
        assert!(y.data().iter().any(|v| v.abs() > 126.0 * 0.04));
    }

    #[test]
    fn qadd_clamps_to_symmetric_int8() {
        let op = QAddOp {
            rq_a: None,
            rq_b: None,
            out_scale: 0.1,
        };
        let q = |data: Vec<i8>| QTensor {
            data,
            shape: vec![1, 4],
            scale: 0.1,
        };
        let mut a = q(vec![127, -127, 100, -100]);
        qadd_in_place(&op, &mut a, &q(vec![127, -127, 50, 3])).unwrap();
        assert_eq!(a.data, vec![127, -127, 127, -97]);
        let mut short = QTensor {
            shape: vec![1, 2],
            ..q(vec![1, 2])
        };
        assert!(qadd_in_place(&op, &mut short, &a).is_err());
    }

    /// Captures gauge names; every other record is ignored.
    #[derive(Default)]
    struct GaugeNames(std::sync::Mutex<Vec<String>>);

    impl telemetry::Sink for GaugeNames {
        fn emit(&self, event: &telemetry::Event<'_>) {
            if event.kind == telemetry::EventKind::Gauge {
                self.0.lock().unwrap().push(event.name.to_owned());
            }
        }
    }

    #[test]
    fn traced_inference_mirrors_kernel_gauges() {
        let (m, _) = compile(&float_graph(), &PassConfig::all()).unwrap();
        let x = input(1);
        let sink = std::sync::Arc::new(GaugeNames::default());
        telemetry::set_global(sink.clone());
        let traced = m.infer_batch(x.data(), 1);
        telemetry::clear_global();
        traced.unwrap();
        let names = sink.0.lock().unwrap().clone();
        for want in [
            "infer.select_vecmat",
            "infer.select_skinny_n",
            "infer.select_square",
            "infer.select_conv",
            "infer.select_generic",
            "infer.pack_panels_built",
            "infer.pack_panel_hits",
            "infer.pack_panel_misses",
        ] {
            assert!(names.iter().any(|n| n == want), "{want} missing: {names:?}");
        }
    }

    #[test]
    fn unlowered_graph_is_rejected() {
        let err = CompiledModel::from_graph(float_graph())
            .unwrap_err()
            .to_string();
        assert!(err.contains("unlowered"), "{err}");
    }
}
