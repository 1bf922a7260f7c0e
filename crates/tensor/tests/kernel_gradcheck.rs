//! Finite-difference gradient checks routed through the blocked kernel
//! layer: conv2d and depthwise conv (including strided and padded
//! configurations), eval-mode batch norm, plus a linear-layer-shaped
//! matmul+bias chain. These guard the transpose-free backward kernels
//! (`matmul_at_b` / `matmul_a_bt`), the batched conv backward and the
//! depthwise gather / row-batched backward against the analytic gradients
//! drifting from the math.

use edd_tensor::gradcheck::check_gradients;
use edd_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

#[test]
fn conv2d_gradients_unit_stride_with_padding() {
    let mut rng = StdRng::seed_from_u64(21);
    let x = Tensor::param(Array::randn(&[2, 3, 6, 6], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[4, 3, 3, 3], 0.5, &mut rng));
    let b = Tensor::param(Array::randn(&[4], 0.5, &mut rng));
    let (xr, wr, br) = (x.clone(), w.clone(), b.clone());
    let report = check_gradients(
        &[x, w, b],
        move || xr.conv2d(&wr, Some(&br), 1, 1).unwrap().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "conv2d s1 p1 rel error {} (param {}, index {})",
        report.max_rel_error,
        report.worst_param,
        report.worst_index
    );
}

#[test]
fn conv2d_gradients_stride_two() {
    let mut rng = StdRng::seed_from_u64(22);
    let x = Tensor::param(Array::randn(&[2, 2, 7, 7], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[3, 2, 3, 3], 0.5, &mut rng));
    let (xr, wr) = (x.clone(), w.clone());
    let report = check_gradients(
        &[x, w],
        move || xr.conv2d(&wr, None, 2, 1).unwrap().square().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "conv2d s2 p1 rel error {}",
        report.max_rel_error
    );
}

#[test]
fn dwconv2d_gradients_unit_stride_with_padding() {
    let mut rng = StdRng::seed_from_u64(23);
    let x = Tensor::param(Array::randn(&[2, 4, 6, 6], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[4, 3, 3], 0.5, &mut rng));
    let (xr, wr) = (x.clone(), w.clone());
    let report = check_gradients(
        &[x, w],
        move || xr.dwconv2d(&wr, None, 1, 1).unwrap().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "dwconv2d s1 p1 rel error {}",
        report.max_rel_error
    );
}

#[test]
fn dwconv2d_gradients_stride_two() {
    let mut rng = StdRng::seed_from_u64(24);
    let x = Tensor::param(Array::randn(&[3, 3, 7, 7], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[3, 3, 3], 0.5, &mut rng));
    let b = Tensor::param(Array::randn(&[3], 0.5, &mut rng));
    let (xr, wr, br) = (x.clone(), w.clone(), b.clone());
    let report = check_gradients(
        &[x, w, b],
        move || xr.dwconv2d(&wr, Some(&br), 2, 1).unwrap().square().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "dwconv2d s2 p1 rel error {}",
        report.max_rel_error
    );
}

#[test]
fn dwconv2d_gradients_unit_stride_wide_kernels() {
    // k = 5 and 7 on ragged planes taller than one eight-row group: the
    // gather input gradient and the row-batched weight gradient, with a
    // non-uniform output gradient.
    for (seed, k, h, w) in [(27u64, 5usize, 11usize, 9usize), (28, 7, 10, 13)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::param(Array::randn(&[2, 3, h, w], 1.0, &mut rng));
        let wt = Tensor::param(Array::randn(&[3, k, k], 0.3, &mut rng));
        let (xr, wr) = (x.clone(), wt.clone());
        let report = check_gradients(
            &[x, wt],
            move || xr.dwconv2d(&wr, None, 1, k / 2).unwrap().square().sum(),
            EPS,
            1,
        );
        assert!(
            report.max_rel_error < TOL,
            "dwconv2d s1 k{k} rel error {} (param {}, index {})",
            report.max_rel_error,
            report.worst_param,
            report.worst_index
        );
    }
}

#[test]
fn batch_norm2d_eval_gradients() {
    // Fixed running statistics: gradients flow to the input, gamma and
    // beta, not to the statistics.
    let mut rng = StdRng::seed_from_u64(29);
    let x = Tensor::param(Array::randn(&[2, 3, 4, 5], 1.5, &mut rng));
    let gamma = Tensor::param(Array::rand_uniform(&[3], 0.5, 1.5, &mut rng));
    let beta = Tensor::param(Array::randn(&[3], 0.5, &mut rng));
    let mean = Array::randn(&[3], 0.5, &mut rng);
    let var = Array::rand_uniform(&[3], 0.5, 2.0, &mut rng);
    let (xr, gr, br) = (x.clone(), gamma.clone(), beta.clone());
    let report = check_gradients(
        &[x, gamma, beta],
        move || {
            xr.batch_norm2d_eval(&gr, &br, &mean, &var, 1e-5)
                .unwrap()
                .square()
                .sum()
        },
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "batch_norm2d_eval rel error {} (param {}, index {})",
        report.max_rel_error,
        report.worst_param,
        report.worst_index
    );
}

#[test]
fn linear_shaped_matmul_gradients() {
    // y = x W + b, the exact chain `edd_nn::Linear` runs, so the backward
    // exercises both transpose-free GEMM variants and the bias broadcast.
    let mut rng = StdRng::seed_from_u64(25);
    let x = Tensor::param(Array::randn(&[5, 7], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[7, 4], 0.5, &mut rng));
    let b = Tensor::param(Array::randn(&[4], 0.5, &mut rng));
    let (xr, wr, br) = (x.clone(), w.clone(), b.clone());
    let report = check_gradients(
        &[x, w, b],
        move || xr.matmul(&wr).unwrap().add(&br).unwrap().square().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "linear chain rel error {}",
        report.max_rel_error
    );
}

#[test]
fn wide_matmul_gradients_cross_tile_boundaries() {
    // Dimensions past one 4x8 register tile so the backward kernels hit
    // their full-tile fast paths, not just the remainder loops.
    let mut rng = StdRng::seed_from_u64(26);
    let a = Tensor::param(Array::randn(&[6, 11], 1.0, &mut rng));
    let b = Tensor::param(Array::randn(&[11, 10], 0.5, &mut rng));
    let (ar, br) = (a.clone(), b.clone());
    let report = check_gradients(
        &[a, b],
        move || ar.matmul(&br).unwrap().square().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "matmul rel error {}",
        report.max_rel_error
    );
}
