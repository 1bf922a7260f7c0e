//! `edd-ir`: the typed model-graph IR between architecture derivation and
//! the quantized inference engine.
//!
//! The EDD co-search emits a `DerivedArch`; training/calibration attach
//! weights and activation scales. This crate is the one compiler from
//! that trained model to the integer engine, as a first-class,
//! inspectable pipeline:
//!
//! 1. **[`graph`]** — a typed graph of ops (nodes) over tensors (edges),
//!    each node carrying inferred shape/dtype [`Fact`]s plus the
//!    frontend's calibration annotations (activation scale, Φ-searched
//!    weight bits).
//! 2. **[`patch`]** — passes record rewrites in a [`Patch`] against a
//!    frozen graph and apply them as a validated batch.
//! 3. **[`passes`]** — BN folding, ReLU6 fusion, quantize lowering at the
//!    annotated precisions, 1×1 direct-conv bypass, and dead-branch
//!    elimination. Every optional pass preserves the quantized output
//!    bit-for-bit (see the [`passes`] docs for why), which the test suite
//!    enforces per pass against the unoptimized lowering.
//! 4. **[`exec`]** — [`CompiledModel`], the one integer executor, runs
//!    the lowered graph and implements `edd_runtime::BatchModel`, so it
//!    serves behind the batching front ends.
//! 5. **[`artifact`]** — a versioned, CRC-checked binary format (the
//!    snapshot container with an artifact magic) storing tensors as raw
//!    bits; `edd compile` writes artifacts, `edd serve` hot-loads them.
//! 6. **[`pulse`]** — [`PulsedModel`] streams a lowered graph:
//!    fixed-size input rows in, sliding-window logits out. It keeps a
//!    ring of the last window's input rows and recomputes each completed
//!    window with [`CompiledModel`], so carried state is one window of
//!    input, independent of stream length, and every window is bitwise
//!    equal to the batch executor on the same rows.
//!
//! The crate deliberately knows nothing about search, training, or
//! calibration — `edd-core` builds annotated float graphs out of its
//! models (`edd_core::lower`; `edd_core::compile_quantized` runs that
//! plus every pass), and everything downstream of that is pure graph
//! transformation.

pub mod artifact;
pub mod exec;
pub mod graph;
pub mod passes;
pub mod patch;
pub mod pulse;

pub use exec::CompiledModel;
pub use graph::{
    BatchNormOp, ConvOp, DType, DwConvOp, Fact, Graph, GraphMeta, LinearOp, Node, Op, QAddOp,
};
pub use passes::{
    bn_fold_pass, bypass_1x1_pass, compile, lower, lower_quantized, relu6_fuse_pass, PassConfig,
    PassReport, PASS_NAMES,
};
pub use patch::Patch;
pub use pulse::PulsedModel;
