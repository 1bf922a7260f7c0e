//! Golden bit pins: FNV-1a hashes of the exact output bits of the f32
//! training kernels and of the pipelines built on them, recorded once and
//! held fixed. A kernel rewrite that claims "same bits, faster" must leave
//! every hash here unchanged, under every thread count, SIMD mode and GEMM
//! mode of the determinism matrix (`scripts/determinism.sh` runs this
//! file in each leg).
//!
//! Pinned:
//! * depthwise convolution forward, input gradient and weight gradient
//!   over a grid of kernel sizes, strides, paddings and plane shapes
//!   (including planes with fewer than 8 output rows and fewer than 16
//!   columns);
//! * the same gradients when the output gradient carries NaN and ±Inf;
//! * eval-mode `BatchNorm2d::forward` and `forward_relu6`, plus the input
//!   gradient of the latter;
//! * a 2-epoch tiny `CoSearch`: derived-architecture JSON and epoch
//!   history CSV;
//! * the logits of every tiny-zoo engine (IR-compiled; calibration runs
//!   eval-mode batch norm) on a fixed image.
//!
//! On a mismatch the assertion prints the new hash, so a deliberate change
//! of numerics can re-record the pin in one edit.

use edd::core::{CoSearch, CoSearchConfig, DeviceTarget, SearchSpace};
use edd::data::{SynthConfig, SynthDataset};
use edd::hw::FpgaDevice;
use edd::ir::PassConfig;
use edd::nn::{BatchNorm2d, Module};
use edd::tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Incremental 64-bit FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes the bit patterns of `values`. Every NaN hashes as one
    /// canonical quiet NaN: the position of a NaN is part of the contract,
    /// its payload is not (the compiler may commute a NaN-producing add).
    fn floats(&mut self, values: &[f32]) {
        for &v in values {
            let bits = if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() };
            self.bytes(&bits.to_le_bytes());
        }
    }
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: bit hash 0x{got:016x} differs from the pinned 0x{want:016x}"
    );
}

/// Plane shapes `(h, w)` of the depthwise grid: square and ragged, from
/// 3x3 to 24x24, with fewer than 8 output rows and fewer than 16 columns
/// in several of them.
const DW_PLANES: [(usize, usize); 8] = [
    (3, 3),
    (4, 6),
    (6, 13),
    (7, 16),
    (9, 9),
    (12, 20),
    (16, 16),
    (24, 24),
];

/// Forward, `dx` and `dw` hashes of one depthwise configuration, fed a
/// random output gradient through `loss = sum(y * r)`. `poison` replaces a
/// few entries of `r` with NaN and ±Inf.
fn dw_case(
    hashes: &mut [Fnv; 3],
    k: usize,
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
    poison: bool,
) {
    let seed = (k * 1000 + stride * 100 + pad * 10) as u64 ^ ((h * 64 + w) as u64) << 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let (b, c) = (2, 3);
    let x = Tensor::param(Array::randn(&[b, c, h, w], 1.0, &mut rng));
    let wt = Tensor::param(Array::randn(&[c, k, k], 0.5, &mut rng));
    let y = x.dwconv2d(&wt, None, stride, pad).unwrap();
    let mut r = Array::randn(&y.shape(), 1.0, &mut rng);
    if poison {
        let n = r.len();
        let d = r.data_mut();
        d[0] = f32::NAN;
        d[n / 3] = f32::INFINITY;
        d[n / 2] = f32::NEG_INFINITY;
        d[n - 1] = f32::NAN;
    }
    y.mul(&Tensor::constant(r)).unwrap().sum().backward();
    hashes[0].floats(y.value().data());
    hashes[1].floats(x.grad().unwrap().data());
    hashes[2].floats(wt.grad().unwrap().data());
}

fn dw_grid(poison: bool) -> [u64; 3] {
    let mut hashes = [Fnv::new(), Fnv::new(), Fnv::new()];
    for k in [3, 5, 7] {
        for stride in [1, 2] {
            for pad in [0, k / 2, k - 1] {
                for (h, w) in DW_PLANES {
                    if h + 2 * pad < k || w + 2 * pad < k {
                        continue;
                    }
                    dw_case(&mut hashes, k, stride, pad, h, w, poison);
                }
            }
        }
    }
    hashes.map(|f| f.0)
}

#[test]
fn dwconv2d_grid_bits_are_pinned() {
    let [fwd, dx, dw] = dw_grid(false);
    check("dwconv2d forward", fwd, 0x97b3_4d2d_a111_b962);
    check("dwconv2d dx", dx, 0xde36_80e8_fc76_ab91);
    check("dwconv2d dw", dw, 0x11e9_7842_805e_2182);
}

#[test]
fn dwconv2d_nonfinite_gradient_bits_are_pinned() {
    let [_, dx, dw] = dw_grid(true);
    check("dwconv2d dx (NaN/Inf gy)", dx, 0x6707_d270_c8bf_6542);
    check("dwconv2d dw (NaN/Inf gy)", dw, 0xef96_4a26_ce39_f457);
}

#[test]
fn eval_batch_norm_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0xB17);
    let bn = BatchNorm2d::new(6);
    // Warm the running statistics away from their (0, 1) initial values.
    for _ in 0..3 {
        let xb = Array::randn(&[4, 6, 5, 5], 2.0, &mut rng).map(|v| v + 1.5);
        bn.forward(&Tensor::constant(xb)).unwrap();
    }
    bn.set_training(false);
    let gamma = Array::rand_uniform(&[6], 0.5, 1.5, &mut rng);
    let beta = Array::randn(&[6], 1.0, &mut rng);
    bn.gamma().update_value(|a| *a = gamma.clone());
    bn.beta().update_value(|a| *a = beta.clone());

    let x = Tensor::param(Array::randn(&[3, 6, 7, 9], 2.5, &mut rng));
    let mut fwd = Fnv::new();
    fwd.floats(bn.forward(&x).unwrap().value().data());
    check("eval BatchNorm2d::forward", fwd.0, 0x3104_028b_bce1_f43f);

    let y = bn.forward_relu6(&x).unwrap();
    let mut relu6 = Fnv::new();
    relu6.floats(y.value().data());
    check(
        "eval BatchNorm2d::forward_relu6",
        relu6.0,
        0x5873_265d_0533_eb37,
    );

    let r = Array::randn(&y.shape(), 1.0, &mut rng);
    y.mul(&Tensor::constant(r)).unwrap().sum().backward();
    let mut dx = Fnv::new();
    dx.floats(x.grad().unwrap().data());
    check(
        "eval BatchNorm2d::forward_relu6 dx",
        dx.0,
        0xd59b_86ad_af27_3dbe,
    );
}

#[test]
fn tiny_co_search_outputs_are_pinned() {
    let mut rng = StdRng::seed_from_u64(2024);
    let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
    let space = SearchSpace::tiny(3, 16, 4, target.default_quant_bits());
    let config = CoSearchConfig {
        epochs: 2,
        warmup_epochs: 1,
        ..CoSearchConfig::default()
    };
    let data = SynthDataset::new(SynthConfig::tiny());
    let train = data.split(2, 8, 1);
    let val = data.split(1, 8, 2);
    let mut search = CoSearch::new(space, target, config, &mut rng).unwrap();
    let outcome = search.run(&train, &val, &mut rng).unwrap();
    let mut arch = Fnv::new();
    arch.bytes(outcome.derived.to_json().unwrap().as_bytes());
    check(
        "tiny co-search derived arch JSON",
        arch.0,
        0xd607_8461_b88a_1aab,
    );
    let mut history = Fnv::new();
    history.bytes(outcome.history_csv().as_bytes());
    check(
        "tiny co-search history CSV",
        history.0,
        0x7583_5c8f_4fd3_cfe7,
    );
}

#[test]
fn tiny_zoo_engine_logits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x1_0617);
    let image = Array::randn(&[1, 3, 16, 16], 1.0, &mut rng);
    let engines = edd::zoo::compile_tiny_zoo(7, &PassConfig::all());
    let want: [(&str, u64); 3] = [
        ("edd-tiny-quant-demo", 0x669a_0d3b_ed18_1d58),
        ("edd-tiny-int8", 0x1598_c9fd_43de_b013),
        ("edd-tiny-int4", 0xbe61_b973_b928_4a80),
    ];
    assert_eq!(engines.len(), want.len());
    for ((name, model, _), (want_name, want_hash)) in engines.iter().zip(want) {
        let logits = model.forward(&image).unwrap();
        let mut h = Fnv::new();
        h.floats(logits.data());
        assert_eq!(name, want_name);
        check(&format!("tiny-zoo engine {name} logits"), h.0, want_hash);
    }
}
