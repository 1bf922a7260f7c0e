//! Criterion micro-benchmarks of the autodiff substrate: the dense kernels
//! (GEMM, im2col convolution, depthwise convolution, batch norm) that
//! dominate supernet training time, in both forward and backward modes,
//! plus eval-mode batch norm (the validation and calibration forwards).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edd_nn::{BatchNorm2d, Module};
use edd_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [32usize, 64, 128] {
        let a = Array::randn(&[n, n], 1.0, &mut rng);
        let b = Array::randn(&[n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b).unwrap()));
        });
    }
    group.finish();
}

fn bench_matmul_naive(c: &mut Criterion) {
    // The scalar reference oracle, kept as the "before" baseline so the
    // blocked kernel's win stays measurable from the same bench run.
    let mut group = c.benchmark_group("matmul_naive");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [32usize, 64, 128] {
        let a = Array::randn(&[n, n], 1.0, &mut rng);
        let b = Array::randn(&[n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_naive(&b).unwrap()));
        });
    }
    group.finish();
}

fn bench_conv_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_forward");
    let mut rng = StdRng::seed_from_u64(2);
    for (cin, hw) in [(16usize, 16usize), (32, 16), (32, 32)] {
        let x = Tensor::constant(Array::randn(&[4, cin, hw, hw], 1.0, &mut rng));
        let w = Tensor::constant(Array::randn(&[cin, cin, 3, 3], 0.1, &mut rng));
        let label = format!("c{cin}_hw{hw}");
        group.bench_function(BenchmarkId::from_parameter(label), |bench| {
            bench.iter(|| black_box(x.conv2d(&w, None, 1, 1).unwrap()));
        });
    }
    group.finish();
}

fn bench_conv_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_train_step");
    let mut rng = StdRng::seed_from_u64(3);
    let x = Tensor::constant(Array::randn(&[4, 16, 16, 16], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[16, 16, 3, 3], 0.1, &mut rng));
    group.bench_function("fwd_bwd", |bench| {
        bench.iter(|| {
            w.zero_grad();
            let y = x.conv2d(&w, None, 1, 1).unwrap();
            let loss = y.square().sum();
            loss.backward();
            black_box(w.grad())
        });
    });
    group.finish();
}

fn bench_dwconv(c: &mut Criterion) {
    let mut group = c.benchmark_group("dwconv2d_forward");
    let mut rng = StdRng::seed_from_u64(4);
    for k in [3usize, 5, 7] {
        let x = Tensor::constant(Array::randn(&[4, 32, 16, 16], 1.0, &mut rng));
        let w = Tensor::constant(Array::randn(&[32, k, k], 0.1, &mut rng));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| black_box(x.dwconv2d(&w, None, 1, k / 2).unwrap()));
        });
    }
    group.finish();
}

fn bench_dwconv_fwd_bwd(c: &mut Criterion) {
    // The supernet's depthwise shape (MBConv expansion 6 of 16 channels on
    // a 16x16 plane, batch 16): one forward plus the input and weight
    // gradients of the stride-1 "same" convolution.
    let mut group = c.benchmark_group("dwconv2d_fwd_bwd");
    let mut rng = StdRng::seed_from_u64(6);
    let x = Tensor::param(Array::randn(&[16, 96, 16, 16], 1.0, &mut rng));
    for k in [3usize, 5, 7] {
        let w = Tensor::param(Array::randn(&[96, k, k], 0.1, &mut rng));
        group.bench_function(BenchmarkId::from_parameter(format!("k{k}")), |bench| {
            bench.iter(|| {
                x.zero_grad();
                w.zero_grad();
                x.dwconv2d(&w, None, 1, k / 2).unwrap().sum().backward();
                black_box(w.grad())
            });
        });
    }
    group.finish();
}

fn bench_batchnorm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let x = Tensor::param(Array::randn(&[8, 32, 16, 16], 1.0, &mut rng));
    let gamma = Tensor::param(Array::ones(&[32]));
    let beta = Tensor::param(Array::zeros(&[32]));
    c.bench_function("batchnorm_train_fwd", |bench| {
        bench.iter(|| black_box(x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap().output));
    });
}

fn bench_batchnorm_eval(c: &mut Criterion) {
    // Eval-mode BN + ReLU6 over running statistics: the normalization of
    // the search's validation forward and of quantization calibration.
    let mut rng = StdRng::seed_from_u64(7);
    let bn = BatchNorm2d::new(96);
    let x = Tensor::constant(Array::randn(&[16, 96, 16, 16], 1.0, &mut rng));
    bn.forward(&x).unwrap();
    bn.set_training(false);
    c.bench_function("batchnorm_eval_fwd_relu6", |bench| {
        bench.iter(|| black_box(bn.forward_relu6(&x).unwrap()));
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_naive,
    bench_conv_forward,
    bench_conv_backward,
    bench_dwconv,
    bench_dwconv_fwd_bwd,
    bench_batchnorm,
    bench_batchnorm_eval
);
criterion_main!(benches);
