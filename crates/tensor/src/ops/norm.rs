//! Fused 2-D batch normalization with hand-derived backward passes.
//!
//! Two modes share one op body: training mode
//! ([`Tensor::batch_norm2d_train`]) normalizes with batch statistics that
//! themselves depend on the input, and eval mode
//! ([`Tensor::batch_norm2d_eval`]) normalizes with fixed running statistics.
//! Each has a ReLU6-fused variant ([`Tensor::batch_norm2d_relu6_train`],
//! [`Tensor::batch_norm2d_relu6_eval`]) that folds the activation used by
//! the MBConv candidate ops into the same node, saving one full-tensor op
//! node (and its gradient buffer) per normalization.

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::kernel;
use crate::kernel::pool::{self, SendPtr};
use crate::tensor::Tensor;

/// Runs `f(ci)` for every channel, over the worker pool when the tensor is
/// large enough for the dispatch to pay off and inline otherwise — the
/// same `PAR_MIN_ELEMS` gating the elementwise kernels use, so tiny
/// batch-norm layers never pay job-queue overhead. Results are identical
/// either way: each `f(ci)` owns channel `ci`'s outputs exclusively.
fn per_channel(c: usize, elems: usize, f: &(dyn Fn(usize) + Sync)) {
    if elems < kernel::PAR_MIN_ELEMS {
        for ci in 0..c {
            f(ci);
        }
    } else {
        pool::run(c, f);
    }
}

/// Output of [`Tensor::batch_norm2d_train`]: the normalized activations plus
/// the batch statistics needed to update running estimates.
#[derive(Debug, Clone)]
pub struct BatchNormOutput {
    /// Normalized, scaled and shifted activations (same shape as the input).
    pub output: Tensor,
    /// Per-channel batch mean `[c]`.
    pub batch_mean: Array,
    /// Per-channel (biased) batch variance `[c]`.
    pub batch_var: Array,
}

/// Shared implementation of batch norm in both modes, optionally fusing the
/// ReLU6 activation into the same op node. `running` holds the eval-mode
/// `(mean, var)`; `None` selects training mode (batch statistics).
///
/// The fused path is bitwise identical to the unfused op followed by
/// `relu6()`: the forward clamp applies the same expression to the same
/// pre-activation, and the backward masks the incoming gradient with the
/// ReLU6 derivative of the recomputed pre-activation
/// `y = gamma * xhat + beta` (same inputs, same expression, same bits as the
/// forward) before running the exact same per-channel loops the unfused
/// backward runs.
///
/// Eval mode evaluates `((x - mean) * inv_std) * gamma + beta` per element,
/// the expression of the broadcast composition `x.sub(mean).mul(inv_std)
/// .mul(gamma).add(beta)`, so its outputs match that composition bit for
/// bit; so does its input gradient `(g * gamma) * inv_std`. The `gamma` and
/// `beta` gradients use the training path's fixed eight-lane reductions
/// instead of the composition's axis-by-axis sums, so they agree with it to
/// rounding, not bitwise.
fn bn2d_impl(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    running: Option<(&Array, &Array)>,
    fuse_relu6: bool,
) -> Result<BatchNormOutput> {
    let shape = x.shape();
    if shape.len() != 4 {
        return Err(TensorError::InvalidShape {
            shape,
            reason: "batch_norm2d expects NCHW".into(),
        });
    }
    let (b, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    if gamma.shape() != [c] || beta.shape() != [c] {
        return Err(TensorError::ShapeMismatch {
            lhs: gamma.shape(),
            rhs: vec![c],
            op: "batch_norm2d gamma/beta",
        });
    }
    if let Some((rm, rv)) = running {
        if rm.shape() != [c] || rv.shape() != [c] {
            return Err(TensorError::ShapeMismatch {
                lhs: rm.shape().to_vec(),
                rhs: vec![c],
                op: "batch_norm2d running mean/var",
            });
        }
    }
    let n = (b * h * w) as f32;
    let plane = h * w;
    let elems = b * c * plane;
    let gval = gamma.value_clone();
    let bval = beta.value_clone();

    let (mut mean, mut var) = match running {
        Some((rm, rv)) => (rm.clone(), rv.clone()),
        None => (Array::zeros(&[c]), Array::zeros(&[c])),
    };
    // Every plane of the output is written below, so it can start
    // uninitialized (pool-recycled without zeroing). The normalized
    // activations are NOT materialized: the backward recomputes
    // `(x - mu) * inv_std` from the parent input and the saved statistics
    // — same expression, same inputs, same bits — which saves a
    // full-tensor buffer and its write pass on every training step.
    let mut out = Array::uninit(&shape);
    {
        // The input is read through the value guard for the whole forward
        // pass instead of being cloned; the guard drops before the op node
        // is built.
        let xv = x.value();
        let xd = xv.data();

        // Training-mode channel statistics via the kernel layer's
        // lane-parallel reductions: fixed association (deterministic) but
        // no sequential float dependency chain, so the passes vectorize.
        if running.is_none() {
            // One pool task per channel: each task owns mean[ci]/var[ci], so
            // the SendPtr windows are disjoint and the per-channel values are
            // independent of how tasks land on workers.
            let mean_p = SendPtr::new(mean.data_mut().as_mut_ptr());
            let var_p = SendPtr::new(var.data_mut().as_mut_ptr());
            per_channel(c, elems, &|ci| {
                let mut acc = 0.0f32;
                for bi in 0..b {
                    let base = (bi * c + ci) * plane;
                    acc += kernel::sum8(&xd[base..base + plane]);
                }
                let mu = acc / n;
                let mut vacc = 0.0f32;
                for bi in 0..b {
                    let base = (bi * c + ci) * plane;
                    vacc += kernel::sq_dev_sum8(&xd[base..base + plane], mu);
                }
                (unsafe { mean_p.slice(ci, 1) })[0] = mu;
                (unsafe { var_p.slice(ci, 1) })[0] = vacc / n;
            });
        }

        // Output pass, channel-parallel with disjoint per-channel plane
        // windows: the normalized value feeds the affine (and optional
        // clamp) while still in register.
        {
            let out_p = SendPtr::new(out.data_mut().as_mut_ptr());
            per_channel(c, elems, &|ci| {
                let mu = mean.data()[ci];
                let inv_std = 1.0 / (var.data()[ci] + eps).sqrt();
                let ga = gval.data()[ci];
                let be = bval.data()[ci];
                for bi in 0..b {
                    let base = (bi * c + ci) * plane;
                    let xs = &xd[base..base + plane];
                    let ys = unsafe { out_p.slice(base, plane) };
                    if fuse_relu6 {
                        for (y, &x) in ys.iter_mut().zip(xs) {
                            let v = (x - mu) * inv_std;
                            *y = (ga * v + be).clamp(0.0, 6.0);
                        }
                    } else {
                        for (y, &x) in ys.iter_mut().zip(xs) {
                            let v = (x - mu) * inv_std;
                            *y = ga * v + be;
                        }
                    }
                }
            });
        }
    }

    let eval_mode = running.is_some();
    let x_t = x.clone();
    let g_t = gamma.clone();
    let b_t = beta.clone();
    // Saved forward products are captured by value: the backward closure
    // must never read its own output tensor (it runs under that node's
    // write lock), and mean/var are not recoverable from the parents
    // without re-running the reductions. The normalized activations are
    // recomputed from the parent input plus these statistics instead of
    // being saved.
    let mean_saved = mean.clone();
    let var_saved = var.clone();
    let gval_saved = gval;
    let bval_saved = bval;
    let output = Tensor::from_op(
        out,
        vec![x.clone(), gamma.clone(), beta.clone()],
        Box::new(move |g| {
            // The parent input is read through its value guard for the
            // whole backward pass; normalized activations are recomputed
            // per element as `(x - mu) * inv_std` — identical bits to the
            // buffer the forward used to save. The guard is scoped so it
            // drops before gradients are accumulated into the parents.
            let (dbeta, dgamma, dx) = {
                let xv = x_t.value();
                let xd = xv.data();

                // With the fused activation, first mask the incoming
                // gradient by the ReLU6 derivative of the recomputed
                // pre-activation — after this the remaining math is exactly
                // the plain BN backward, so fused and unfused gradients
                // agree bit for bit.
                let masked = if fuse_relu6 {
                    let mut gs = Array::uninit(&[b, c, h, w]);
                    {
                        let gs_p = SendPtr::new(gs.data_mut().as_mut_ptr());
                        per_channel(c, elems, &|ci| {
                            let mu = mean_saved.data()[ci];
                            let inv_std = 1.0 / (var_saved.data()[ci] + eps).sqrt();
                            let ga = gval_saved.data()[ci];
                            let be = bval_saved.data()[ci];
                            for bi in 0..b {
                                let base = (bi * c + ci) * plane;
                                let gsl = &g.data()[base..base + plane];
                                let xs = &xd[base..base + plane];
                                let ms = unsafe { gs_p.slice(base, plane) };
                                for ((m, &gv), &x) in ms.iter_mut().zip(gsl).zip(xs) {
                                    let y = ga * ((x - mu) * inv_std) + be;
                                    *m = gv * if y > 0.0 && y < 6.0 { 1.0 } else { 0.0 };
                                }
                            }
                        });
                    }
                    Some(gs)
                } else {
                    None
                };
                let gd: &[f32] = match &masked {
                    Some(a) => a.data(),
                    None => g.data(),
                };

                // Per-channel reductions of the (masked) output gradient,
                // channel-parallel with disjoint [ci] output slots.
                let mut dbeta = Array::zeros(&[c]);
                let mut dgamma = Array::zeros(&[c]);
                {
                    let dbeta_p = SendPtr::new(dbeta.data_mut().as_mut_ptr());
                    let dgamma_p = SendPtr::new(dgamma.data_mut().as_mut_ptr());
                    per_channel(c, elems, &|ci| {
                        let mu = mean_saved.data()[ci];
                        let inv_std = 1.0 / (var_saved.data()[ci] + eps).sqrt();
                        let mut sb = 0.0f32;
                        let mut sg = 0.0f32;
                        for bi in 0..b {
                            let base = (bi * c + ci) * plane;
                            let gs = &gd[base..base + plane];
                            sb += kernel::sum8(gs);
                            sg += kernel::dot_norm8(gs, &xd[base..base + plane], mu, inv_std);
                        }
                        (unsafe { dbeta_p.slice(ci, 1) })[0] = sb;
                        (unsafe { dgamma_p.slice(ci, 1) })[0] = sg;
                    });
                }
                let dx = if x_t.requires_grad() && eval_mode {
                    // Eval mode: the statistics are constants, so
                    // dx = (g * gamma) * inv_std — the composition's order.
                    let mut dx = Array::uninit(&[b, c, h, w]);
                    {
                        let dx_p = SendPtr::new(dx.data_mut().as_mut_ptr());
                        per_channel(c, elems, &|ci| {
                            let inv_std = 1.0 / (var_saved.data()[ci] + eps).sqrt();
                            let ga = gval_saved.data()[ci];
                            for bi in 0..b {
                                let base = (bi * c + ci) * plane;
                                let gs = &gd[base..base + plane];
                                let ds = unsafe { dx_p.slice(base, plane) };
                                for (d, &gv) in ds.iter_mut().zip(gs) {
                                    *d = (gv * ga) * inv_std;
                                }
                            }
                        });
                    }
                    Some(dx)
                } else if x_t.requires_grad() {
                    // dx = gamma * inv_std / n * (n*g - sum(g) - xhat * sum(g*xhat)),
                    // computed before dbeta/dgamma are moved into their parents.
                    let mut dx = Array::uninit(&[b, c, h, w]);
                    {
                        let dx_p = SendPtr::new(dx.data_mut().as_mut_ptr());
                        per_channel(c, elems, &|ci| {
                            let mu = mean_saved.data()[ci];
                            let inv_std = 1.0 / (var_saved.data()[ci] + eps).sqrt();
                            let ga = gval_saved.data()[ci];
                            let sg = dbeta.data()[ci];
                            let sgx = dgamma.data()[ci];
                            let k = ga * inv_std / n;
                            for bi in 0..b {
                                let base = (bi * c + ci) * plane;
                                let gs = &gd[base..base + plane];
                                let xs = &xd[base..base + plane];
                                let ds = unsafe { dx_p.slice(base, plane) };
                                for ((d, &gv), &x) in ds.iter_mut().zip(gs).zip(xs) {
                                    let xh = (x - mu) * inv_std;
                                    *d = k * (n * gv - sg - xh * sgx);
                                }
                            }
                        });
                    }
                    Some(dx)
                } else {
                    None
                };
                (dbeta, dgamma, dx)
            };
            if let Some(dx) = dx {
                x_t.accumulate_grad_owned(dx);
            }
            if b_t.requires_grad() {
                b_t.accumulate_grad_owned(dbeta);
            }
            if g_t.requires_grad() {
                g_t.accumulate_grad_owned(dgamma);
            }
        }),
    );
    Ok(BatchNormOutput {
        output,
        batch_mean: mean,
        batch_var: var,
    })
}

impl Tensor {
    /// Training-mode batch normalization over an NCHW input using batch
    /// statistics computed over the `(batch, h, w)` axes.
    ///
    /// `gamma` and `beta` are per-channel scale and shift `[c]`. Gradients
    /// flow to the input, `gamma` and `beta`, including the dependence of
    /// the batch statistics on the input.
    ///
    /// # Errors
    ///
    /// Returns an error unless the input is rank-4 and `gamma`/`beta` have
    /// shape `[c]`.
    pub fn batch_norm2d_train(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Result<BatchNormOutput> {
        bn2d_impl(self, gamma, beta, eps, None, false)
    }

    /// Training-mode batch normalization fused with a ReLU6 activation in a
    /// single op node: `relu6(batch_norm2d_train(x))`.
    ///
    /// Forward and backward are bitwise identical to the unfused
    /// composition, but the graph carries one node instead of two — no
    /// intermediate pre-activation tensor, no separate activation gradient
    /// buffer. This is the normalization+activation used by MobileNet-style
    /// blocks (the EDD supernet's candidate ops).
    ///
    /// # Errors
    ///
    /// Returns an error unless the input is rank-4 and `gamma`/`beta` have
    /// shape `[c]`.
    pub fn batch_norm2d_relu6_train(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Result<BatchNormOutput> {
        bn2d_impl(self, gamma, beta, eps, None, true)
    }

    /// Eval-mode batch normalization over an NCHW input with fixed
    /// per-channel statistics `running_mean` / `running_var` `[c]`:
    /// `((x - mean) * inv_std) * gamma + beta` with
    /// `inv_std = 1 / sqrt(var + eps)`.
    ///
    /// One op node instead of the four broadcast ops that spell the same
    /// expression (and the same bits). Gradients flow to the input, `gamma`
    /// and `beta`; the statistics are constants.
    ///
    /// # Errors
    ///
    /// Returns an error unless the input is rank-4 and `gamma`, `beta` and
    /// both statistics have shape `[c]`.
    pub fn batch_norm2d_eval(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        running_mean: &Array,
        running_var: &Array,
        eps: f32,
    ) -> Result<Tensor> {
        let running = Some((running_mean, running_var));
        Ok(bn2d_impl(self, gamma, beta, eps, running, false)?.output)
    }

    /// Eval-mode batch normalization fused with a ReLU6 activation in a
    /// single op node: `relu6(batch_norm2d_eval(x))`, bitwise identical to
    /// the unfused pair in forward and backward.
    ///
    /// # Errors
    ///
    /// Returns an error unless the input is rank-4 and `gamma`, `beta` and
    /// both statistics have shape `[c]`.
    pub fn batch_norm2d_relu6_eval(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        running_mean: &Array,
        running_var: &Array,
        eps: f32,
    ) -> Result<Tensor> {
        let running = Some((running_mean, running_var));
        Ok(bn2d_impl(self, gamma, beta, eps, running, true)?.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizes_to_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::param(Array::randn(&[4, 2, 3, 3], 2.0, &mut rng));
        let gamma = Tensor::param(Array::ones(&[2]));
        let beta = Tensor::param(Array::zeros(&[2]));
        let bn = x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap();
        let v = bn.output.value();
        // per-channel mean ~0, var ~1
        let n = 4 * 3 * 3;
        for ci in 0..2 {
            let mut acc = 0.0f32;
            let mut acc2 = 0.0f32;
            for bi in 0..4 {
                let base = (bi * 2 + ci) * 9;
                for &val in &v.data()[base..base + 9] {
                    acc += val;
                    acc2 += val * val;
                }
            }
            let mean = acc / n as f32;
            let var = acc2 / n as f32 - mean * mean;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn gamma_beta_scale_shift() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::param(Array::randn(&[2, 1, 2, 2], 1.0, &mut rng));
        let gamma = Tensor::param(Array::from_vec(vec![3.0], &[1]).unwrap());
        let beta = Tensor::param(Array::from_vec(vec![5.0], &[1]).unwrap());
        let bn = x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap();
        let v = bn.output.value();
        let mean: f32 = v.data().iter().sum::<f32>() / 8.0;
        assert!((mean - 5.0).abs() < 1e-4);
    }

    #[test]
    fn batch_stats_reported() {
        let x = Tensor::param(Array::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap());
        let gamma = Tensor::param(Array::ones(&[1]));
        let beta = Tensor::param(Array::zeros(&[1]));
        let bn = x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap();
        assert!((bn.batch_mean.data()[0] - 2.5).abs() < 1e-6);
        assert!((bn.batch_var.data()[0] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::param(Array::randn(&[2, 2, 3, 3], 1.0, &mut rng));
        let gamma = Tensor::param(Array::rand_uniform(&[2], 0.5, 1.5, &mut rng));
        let beta = Tensor::param(Array::randn(&[2], 0.3, &mut rng));
        // Weighted loss so gradients differ per element.
        let wts = Tensor::constant(Array::randn(&[2, 2, 3, 3], 1.0, &mut rng));
        let f = |x: &Tensor, ga: &Tensor, be: &Tensor| {
            x.batch_norm2d_train(ga, be, 1e-5)
                .unwrap()
                .output
                .mul(&wts)
                .unwrap()
                .sum()
        };
        f(&x, &gamma, &beta).backward();
        let eps = 1e-2;
        // input entry
        for idx in [0usize, 17, 30] {
            let orig = x.value().data()[idx];
            x.update_value(|a| a.data_mut()[idx] = orig + eps);
            let lp = f(&x, &gamma, &beta).item();
            x.update_value(|a| a.data_mut()[idx] = orig - eps);
            let lm = f(&x, &gamma, &beta).item();
            x.update_value(|a| a.data_mut()[idx] = orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = x.grad().unwrap().data()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * num.abs().max(1.0),
                "x[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        // gamma entry
        let orig = gamma.value().data()[0];
        gamma.update_value(|a| a.data_mut()[0] = orig + eps);
        let lp = f(&x, &gamma, &beta).item();
        gamma.update_value(|a| a.data_mut()[0] = orig - eps);
        let lm = f(&x, &gamma, &beta).item();
        gamma.update_value(|a| a.data_mut()[0] = orig);
        let num = (lp - lm) / (2.0 * eps);
        let ana = gamma.grad().unwrap().data()[0];
        assert!((num - ana).abs() < 5e-2 * num.abs().max(1.0));
    }

    #[test]
    fn validates_shapes() {
        let x = Tensor::param(Array::zeros(&[2, 3, 4, 4]));
        let g_bad = Tensor::param(Array::zeros(&[2]));
        let b_ok = Tensor::param(Array::zeros(&[3]));
        assert!(x.batch_norm2d_train(&g_bad, &b_ok, 1e-5).is_err());
        let x3 = Tensor::param(Array::zeros(&[3, 4, 4]));
        let g3 = Tensor::param(Array::zeros(&[4]));
        assert!(x3.batch_norm2d_train(&g3, &g3, 1e-5).is_err());
    }

    /// Builds matching (x, gamma, beta) parameter pairs for comparing the
    /// fused and unfused paths on identical values.
    fn fused_test_inputs(seed: u64) -> [(Tensor, Tensor, Tensor); 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let xv = Array::randn(&[3, 4, 5, 5], 1.5, &mut rng);
        let gv = Array::rand_uniform(&[4], 0.5, 1.5, &mut rng);
        let bv = Array::randn(&[4], 1.0, &mut rng);
        [
            (
                Tensor::param(xv.clone()),
                Tensor::param(gv.clone()),
                Tensor::param(bv.clone()),
            ),
            (Tensor::param(xv), Tensor::param(gv), Tensor::param(bv)),
        ]
    }

    #[test]
    fn fused_relu6_forward_is_bitwise_identical_to_unfused() {
        let [(x1, g1, b1), (x2, g2, b2)] = fused_test_inputs(7);
        let unfused = x1.batch_norm2d_train(&g1, &b1, 1e-5).unwrap();
        let fused = x2.batch_norm2d_relu6_train(&g2, &b2, 1e-5).unwrap();
        let reference = unfused.output.relu6();
        assert_eq!(reference.value().data(), fused.output.value().data());
        assert_eq!(unfused.batch_mean.data(), fused.batch_mean.data());
        assert_eq!(unfused.batch_var.data(), fused.batch_var.data());
    }

    #[test]
    fn fused_relu6_backward_is_bitwise_identical_to_unfused() {
        let [(x1, g1, b1), (x2, g2, b2)] = fused_test_inputs(11);
        let mut rng = StdRng::seed_from_u64(13);
        let wts = Tensor::constant(Array::randn(&[3, 4, 5, 5], 1.0, &mut rng));
        x1.batch_norm2d_train(&g1, &b1, 1e-5)
            .unwrap()
            .output
            .relu6()
            .mul(&wts)
            .unwrap()
            .sum()
            .backward();
        x2.batch_norm2d_relu6_train(&g2, &b2, 1e-5)
            .unwrap()
            .output
            .mul(&wts)
            .unwrap()
            .sum()
            .backward();
        assert_eq!(x1.grad().unwrap().data(), x2.grad().unwrap().data());
        assert_eq!(g1.grad().unwrap().data(), g2.grad().unwrap().data());
        assert_eq!(b1.grad().unwrap().data(), b2.grad().unwrap().data());
    }

    /// Eval-mode batch norm spelled as the four broadcast ops it fuses.
    fn eval_composition(x: &Tensor, ga: &Tensor, be: &Tensor, rm: &Array, rv: &Array) -> Tensor {
        let c = rm.len();
        let bshape = [1, c, 1, 1];
        let mean = Tensor::constant(rm.reshape(&bshape).unwrap());
        let inv_std = Tensor::constant(
            rv.map(|v| 1.0 / (v + 1e-5).sqrt())
                .reshape(&bshape)
                .unwrap(),
        );
        x.sub(&mean)
            .unwrap()
            .mul(&inv_std)
            .unwrap()
            .mul(&ga.reshape(&bshape).unwrap())
            .unwrap()
            .add(&be.reshape(&bshape).unwrap())
            .unwrap()
    }

    #[test]
    fn eval_mode_matches_the_broadcast_composition() {
        let mut rng = StdRng::seed_from_u64(19);
        let rm = Array::randn(&[4], 1.0, &mut rng);
        let rv = Array::rand_uniform(&[4], 0.3, 2.0, &mut rng);
        let wts = Tensor::constant(Array::randn(&[3, 4, 5, 5], 1.0, &mut rng));
        for relu6 in [false, true] {
            let [(x1, g1, b1), (x2, g2, b2)] = fused_test_inputs(23);
            let mut reference = eval_composition(&x1, &g1, &b1, &rm, &rv);
            let fused = if relu6 {
                reference = reference.relu6();
                x2.batch_norm2d_relu6_eval(&g2, &b2, &rm, &rv, 1e-5)
                    .unwrap()
            } else {
                x2.batch_norm2d_eval(&g2, &b2, &rm, &rv, 1e-5).unwrap()
            };
            assert_eq!(reference.value().data(), fused.value().data());
            reference.mul(&wts).unwrap().sum().backward();
            fused.mul(&wts).unwrap().sum().backward();
            // The input gradient is the composition's expression: same bits.
            assert_eq!(x1.grad().unwrap().data(), x2.grad().unwrap().data());
            // gamma/beta reduce in a different (lane-parallel) order.
            for (p1, p2) in [(&g1, &g2), (&b1, &b2)] {
                let (r, f) = (p1.grad().unwrap(), p2.grad().unwrap());
                for (&rv, &fv) in r.data().iter().zip(f.data()) {
                    assert!(
                        (rv - fv).abs() <= 1e-6 * rv.abs().max(1.0),
                        "relu6={relu6}: composition {rv} vs fused {fv}"
                    );
                }
            }
        }
    }

    #[test]
    fn eval_mode_validates_statistics() {
        let x = Tensor::param(Array::zeros(&[2, 3, 4, 4]));
        let (g, b) = (
            Tensor::param(Array::ones(&[3])),
            Tensor::param(Array::zeros(&[3])),
        );
        let (ok, bad) = (Array::ones(&[3]), Array::ones(&[2]));
        assert!(x.batch_norm2d_eval(&g, &b, &ok, &ok, 1e-5).is_ok());
        assert!(x.batch_norm2d_eval(&g, &b, &bad, &ok, 1e-5).is_err());
        assert!(x.batch_norm2d_relu6_eval(&g, &b, &ok, &bad, 1e-5).is_err());
    }

    #[test]
    fn fused_relu6_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(17);
        let x = Tensor::param(Array::randn(&[2, 2, 3, 3], 1.0, &mut rng));
        let gamma = Tensor::param(Array::rand_uniform(&[2], 0.8, 1.2, &mut rng));
        // Shift the pre-activations to ~3 so most land inside (0, 6) where
        // ReLU6 is differentiable.
        let beta = Tensor::param(Array::full(&[2], 3.0));
        let wts = Tensor::constant(Array::randn(&[2, 2, 3, 3], 1.0, &mut rng));
        let f = |x: &Tensor, ga: &Tensor, be: &Tensor| {
            x.batch_norm2d_relu6_train(ga, be, 1e-5)
                .unwrap()
                .output
                .mul(&wts)
                .unwrap()
                .sum()
        };
        f(&x, &gamma, &beta).backward();
        let eps = 1e-2;
        // Only probe entries whose pre-activation sits safely inside the
        // linear region, away from the clamp kinks at 0 and 6.
        let pre = {
            let bn = x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap();
            bn.output.value_clone()
        };
        let mut checked = 0;
        for idx in 0..pre.len() {
            let y = pre.data()[idx];
            if !(0.5..=5.5).contains(&y) {
                continue;
            }
            let orig = x.value().data()[idx];
            x.update_value(|a| a.data_mut()[idx] = orig + eps);
            let lp = f(&x, &gamma, &beta).item();
            x.update_value(|a| a.data_mut()[idx] = orig - eps);
            let lm = f(&x, &gamma, &beta).item();
            x.update_value(|a| a.data_mut()[idx] = orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = x.grad().unwrap().data()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * num.abs().max(1.0),
                "x[{idx}]: numeric {num} vs analytic {ana}"
            );
            checked += 1;
            if checked >= 4 {
                break;
            }
        }
        assert!(checked > 0, "no interior activations to check");
    }
}
