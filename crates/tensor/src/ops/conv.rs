//! 2-D convolution ops (standard and depthwise) in NCHW layout, with
//! GEMM-lowered forward (`im2col`) and hand-derived backward passes.
//!
//! Both convolutions run on the [`crate::kernel`] layer: the batch
//! dimension is split over scoped threads (each image's output slice is
//! disjoint, so results are bitwise independent of `EDD_NUM_THREADS`),
//! per-worker `im2col`/`dcols` buffers are reused across a worker's
//! images, and the backward GEMMs use the transpose-free kernel variants.

use crate::array::{col2im_into, im2col_into, Array, Conv2dGeometry};
use crate::error::{Result, TensorError};
use crate::kernel;
use crate::scratch;
use crate::tensor::Tensor;

use crate::kernel::valid_out_range;

kernel::avx2_dispatch! {
    /// One depthwise output plane as `k*k` shifted-scaled row accumulations
    /// over precomputed valid ranges: branch-free inner loops (vectorizable
    /// for stride 1), and per output element the taps still accumulate in
    /// `(ky, kx)` order — the same association as the scalar reference loop.
    #[allow(clippy::too_many_arguments)] // plain plane geometry, kept flat
    dw_plane_forward / dw_plane_forward_scalar / dw_plane_forward_avx2,
    (
        dst: &mut [f32],
        src: &[f32],
        ker: &[f32],
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
        oh: usize,
        ow: usize,
    )
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dw_plane_forward_scalar(
    dst: &mut [f32],
    src: &[f32],
    ker: &[f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    // The search space's depthwise kernels are 3/5/7 at stride 1; route
    // them to the const-width stencil (fully unrolled tap chain, one pass
    // over the plane) and keep the tap-by-tap loop as the general fallback.
    if stride == 1 {
        match k {
            3 => return dw_plane_s1::<3>(dst, src, ker, h, w, pad, oh, ow),
            5 => return dw_plane_s1::<5>(dst, src, ker, h, w, pad, oh, ow),
            7 => return dw_plane_s1::<7>(dst, src, ker, h, w, pad, oh, ow),
            _ => {}
        }
    }
    dw_plane_taps(dst, src, ker, h, w, k, stride, pad, oh, ow);
}

/// Lanes per depthwise column group: eight outputs share one pass over the
/// taps, giving eight independent accumulator chains (one SIMD register)
/// instead of one serial `K*K`-add chain per element. Rows with at least
/// 16 outputs use the double-width group (two registers, one tap broadcast
/// for both) — the supernet's 16x16 feature planes are exactly one group.
const DW_GROUP: usize = 8;

/// Double-width depthwise group (see [`DW_GROUP`]).
const DW_GROUP2: usize = 16;

/// Writes the `rows x cols` plane `src` into `padded`, a plane of row width
/// `pw`, zero-padded horizontally: column `c` lands at column `c + shift`
/// (`shift` may be negative; columns that fall outside `[0, pw)` are
/// dropped) and every other column is `+0.0`.
fn zero_padded_copy(
    padded: &mut [f32],
    src: &[f32],
    rows: usize,
    cols: usize,
    pw: usize,
    shift: isize,
) {
    let c0 = shift.min(0).unsigned_abs();
    let c1 = cols.min(pw.saturating_add_signed(-shift)).max(c0);
    let j0 = c0.saturating_add_signed(shift).min(pw);
    let j1 = j0 + (c1 - c0);
    for (prow, srow) in padded
        .chunks_exact_mut(pw)
        .zip(src.chunks_exact(cols))
        .take(rows)
    {
        prow[..j0].fill(0.0);
        prow[j0..j1].copy_from_slice(&srow[c0..c1]);
        prow[j1..].fill(0.0);
    }
}

/// One `G`-wide group of stride-1 depthwise stencil outputs anchored at
/// column `g0` of output row `r`. Tap `(ky, kx)` reads padded row
/// `r + ky - pad` at column offset `kx` for the forward correlation
/// (`FLIP = false`), and padded row `r + pad - ky` at column offset
/// `K - 1 - kx` for the input gradient (`FLIP = true`, the transposed
/// convolution). Either way each lane accumulates its taps in ascending
/// `(ky, kx)` order from `+0.0` — the group width only changes how many
/// independent chains run side by side, never the association within one.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stencil_group_s1<const K: usize, const G: usize, const FLIP: bool>(
    drow: &mut [f32],
    padded: &[f32],
    ker: &[f32],
    pw: usize,
    r: usize,
    pad: usize,
    ky0: usize,
    ky1: usize,
    g0: usize,
) {
    let mut acc = [0.0f32; G];
    for ky in ky0..ky1 {
        let sy = if FLIP { r + pad - ky } else { r + ky - pad };
        let srow = &padded[sy * pw + g0..sy * pw + g0 + K - 1 + G];
        let krow = &ker[ky * K..ky * K + K];
        for (kx, &kv) in krow.iter().enumerate() {
            let off = if FLIP { K - 1 - kx } else { kx };
            let s = &srow[off..off + G];
            for (a, &sv) in acc.iter_mut().zip(s) {
                *a += kv * sv;
            }
        }
    }
    drow[g0..g0 + G].copy_from_slice(&acc);
}

/// Stride-1 stencil over a horizontally zero-padded plane (`rows` rows of
/// width `pw`), overwriting the `out_h x out_w` plane `dst`. Vertical
/// clipping stays range-based per output row; every output column sees a
/// full, branch-free `kx` tap range. Outputs are produced in eight- or
/// sixteen-lane groups (the last group is anchored at `out_w - G` and may
/// recompute a few columns of its predecessor).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stencil_plane_s1<const K: usize, const FLIP: bool>(
    dst: &mut [f32],
    padded: &[f32],
    ker: &[f32],
    rows: usize,
    pw: usize,
    pad: usize,
    out_h: usize,
    out_w: usize,
) {
    for r in 0..out_h {
        // Valid `ky` taps for this output row (rows are not padded).
        let (ky0, ky1) = if FLIP {
            ((r + pad + 1).saturating_sub(rows), (r + pad + 1).min(K))
        } else {
            (pad.saturating_sub(r), (rows + pad).saturating_sub(r).min(K))
        };
        let drow = &mut dst[r * out_w..(r + 1) * out_w];
        if out_w >= DW_GROUP2 {
            let mut gx = 0;
            loop {
                let g0 = gx.min(out_w - DW_GROUP2);
                stencil_group_s1::<K, DW_GROUP2, FLIP>(drow, padded, ker, pw, r, pad, ky0, ky1, g0);
                if g0 == out_w - DW_GROUP2 {
                    break;
                }
                gx += DW_GROUP2;
            }
        } else if out_w >= DW_GROUP {
            let mut gx = 0;
            loop {
                let g0 = gx.min(out_w - DW_GROUP);
                stencil_group_s1::<K, DW_GROUP, FLIP>(drow, padded, ker, pw, r, pad, ky0, ky1, g0);
                if g0 == out_w - DW_GROUP {
                    break;
                }
                gx += DW_GROUP;
            }
        } else {
            for c in 0..out_w {
                stencil_group_s1::<K, 1, FLIP>(drow, padded, ker, pw, r, pad, ky0, ky1, c);
            }
        }
    }
}

/// Stride-1 depthwise forward with a compile-time kernel width.
///
/// The plane is first copied into a horizontally zero-padded scratch image
/// (`ow + K - 1` columns) so the stencil ([`stencil_plane_s1`]) runs
/// branch-free.
///
/// Bitwise identity with the tap-skipping fallback: per element the taps
/// accumulate in ascending `(ky, kx)` order either way, and the extra
/// zero-pad taps contribute `kv * ±0.0`. Because every accumulator starts
/// at `+0.0`, it can never *become* `-0.0` (in round-to-nearest `x + (-x)`
/// is `+0.0` for `x != 0`, and `+0.0 + -0.0` is `+0.0`), and adding `±0.0`
/// to a non-negative-zero float is exact identity — so the padded chain
/// passes through exactly the same partial values as the skipping chain.
/// The argument assumes finite weights: a NaN or infinite `kv` times a pad
/// zero is NaN, where the skipping loop never forms that product.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // plain plane geometry, kept flat
fn dw_plane_s1<const K: usize>(
    dst: &mut [f32],
    src: &[f32],
    ker: &[f32],
    h: usize,
    w: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    let pw = ow + K - 1; // padded row width: sx = ox + kx spans [0, ow + K - 1)
    let mut padded = scratch::alloc(h * pw);
    zero_padded_copy(&mut padded, src, h, w, pw, pad as isize);
    stencil_plane_s1::<K, false>(dst, &padded, ker, h, pw, pad, oh, ow);
}

/// Stride-1 depthwise input gradient as a gather stencil: `dx[sy][sx]`
/// sums `ker[ky][kx] * gy[sy + pad - ky][sx + pad - kx]` over the taps in
/// ascending `(ky, kx)` order from `+0.0`, reading a copy of `gy` zero-padded
/// horizontally to `w + K - 1` columns (gy column `ox` at padded column
/// `ox + K - 1 - pad`) built in `padded`, an `oh x (w + K - 1)` buffer.
/// Overwrites the whole plane.
///
/// Bitwise identity with the scatter loop ([`dx_plane_taps`]): there each
/// `dx` element receives the same products in the same `(ky, kx)` order,
/// starting from a zeroed buffer, and the extra pad taps here add `kv *
/// ±0.0` to an accumulator that can never be `-0.0` — the forward's argument
/// ([`dw_plane_s1`]), with the same finite-weight assumption. NaN and ±Inf
/// entries of `gy` meet the same products and sums as in the scatter loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // plain plane geometry, kept flat
fn dx_plane_s1<const K: usize>(
    dx: &mut [f32],
    padded: &mut [f32],
    ker: &[f32],
    gy: &[f32],
    h: usize,
    w: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    let pw = w + K - 1;
    zero_padded_copy(padded, gy, oh, ow, pw, (K - 1) as isize - pad as isize);
    stencil_plane_s1::<K, true>(dx, padded, ker, oh, pw, pad, h, w);
}

/// General tap-by-tap depthwise plane: `k*k` shifted-scaled row
/// accumulations over precomputed valid ranges.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dw_plane_taps(
    dst: &mut [f32],
    src: &[f32],
    ker: &[f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    dst.fill(0.0);
    for ky in 0..k {
        let (oy0, oy1) = valid_out_range(ky, pad, stride, h, oh);
        for kx in 0..k {
            let kv = ker[ky * k + kx];
            let (ox0, ox1) = valid_out_range(kx, pad, stride, w, ow);
            if ox0 >= ox1 {
                continue;
            }
            for oy in oy0..oy1 {
                // In-bounds by construction of the valid ranges.
                let sy = oy * stride + ky - pad;
                let sx0 = ox0 * stride + kx - pad;
                let dst_row = &mut dst[oy * ow + ox0..oy * ow + ox1];
                if stride == 1 {
                    let src_row = &src[sy * w + sx0..sy * w + sx0 + (ox1 - ox0)];
                    for (d, &s) in dst_row.iter_mut().zip(src_row) {
                        *d += kv * s;
                    }
                } else {
                    let src_row = &src[sy * w..(sy + 1) * w];
                    for (j, d) in dst_row.iter_mut().enumerate() {
                        *d += kv * src_row[sx0 + j * stride];
                    }
                }
            }
        }
    }
}

/// Scratch planes of the stride-1 depthwise backward, allocated once per
/// worker and reused for all of its planes. Every plane of one op has the
/// same geometry, so the transposed planes' padding rows, zeroed at
/// allocation and never written by the per-plane copies, stay zero.
struct DwGradScratch {
    /// `gy` zero-padded to `w + k - 1` columns for [`dx_plane_s1`].
    gy_pad: scratch::ScratchBuf,
    /// Column-major `gy` and input planes for [`dw_grad_s1`], each column
    /// followed by `DW_ROWS - 1` zero rows.
    gy_t: scratch::ScratchBuf,
    src_t: scratch::ScratchBuf,
}

impl DwGradScratch {
    /// Buffers for one worker; empty for the paths the op does not take.
    #[allow(clippy::too_many_arguments)] // plain plane geometry, kept flat
    fn new(
        need_x: bool,
        need_w: bool,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        oh: usize,
        ow: usize,
    ) -> Self {
        let gather = need_x && stride == 1 && matches!(k, 3 | 5 | 7);
        let rows = need_w && stride == 1;
        let len = |on: bool, n: usize| if on { n } else { 0 };
        DwGradScratch {
            gy_pad: scratch::alloc(len(gather, oh * (w + k - 1))),
            gy_t: scratch::alloc_zeroed(len(rows, ow * (oh + DW_ROWS - 1))),
            src_t: scratch::alloc_zeroed(len(rows, w * (h + DW_ROWS - 1))),
        }
    }
}

/// Depthwise backward for one (image, channel) plane, accumulating into
/// `dx` (zeroed by the caller) and `dw`. Per `dx` element the taps apply
/// in ascending `(ky, kx)` order from `+0.0`; each `dw` tap adds its
/// per-output-row dot products in ascending row order, and the caller
/// reduces per-image `dw` partials in batch order — so results stay
/// bitwise identical across thread counts and SIMD modes.
///
/// Stride 1, the search space's only depthwise stride, takes the fast
/// paths: the gather stencil [`dx_plane_s1`] for `k` in {3, 5, 7} and the
/// row-batched [`dw_grad_s1`] for every `k`. Other strides and kernel sizes
/// keep the tap loops [`dx_plane_taps`] / [`dw_grad_strided`].
///
/// Dispatched by hand rather than through `avx2_dispatch!`: the AVX2 twin
/// instantiates the row-batched `dw` reduction with explicit intrinsics
/// ([`dw_rows8_avx2`]), the portable body with [`dw_rows8_scalar`] — the
/// same floating-point operations in the same order.
#[allow(clippy::too_many_arguments)] // plain plane geometry, kept flat
fn dw_plane_backward(
    scr: &mut DwGradScratch,
    dx: Option<&mut [f32]>,
    dw: Option<&mut [f32]>,
    src: &[f32],
    ker: &[f32],
    gy: &[f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if kernel::use_avx2() {
        // SAFETY: AVX2 support verified at runtime just above.
        return unsafe {
            dw_plane_backward_avx2(scr, dx, dw, src, ker, gy, h, w, k, stride, pad, oh, ow)
        };
    }
    dw_plane_backward_impl::<false>(scr, dx, dw, src, ker, gy, h, w, k, stride, pad, oh, ow);
}

/// AVX2 twin of [`dw_plane_backward`].
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn dw_plane_backward_avx2(
    scr: &mut DwGradScratch,
    dx: Option<&mut [f32]>,
    dw: Option<&mut [f32]>,
    src: &[f32],
    ker: &[f32],
    gy: &[f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    dw_plane_backward_impl::<true>(scr, dx, dw, src, ker, gy, h, w, k, stride, pad, oh, ow);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dw_plane_backward_impl<const AVX2: bool>(
    scr: &mut DwGradScratch,
    dx: Option<&mut [f32]>,
    dw: Option<&mut [f32]>,
    src: &[f32],
    ker: &[f32],
    gy: &[f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    if let Some(dx) = dx {
        match (stride, k) {
            (1, 3) => dx_plane_s1::<3>(dx, &mut scr.gy_pad, ker, gy, h, w, pad, oh, ow),
            (1, 5) => dx_plane_s1::<5>(dx, &mut scr.gy_pad, ker, gy, h, w, pad, oh, ow),
            (1, 7) => dx_plane_s1::<7>(dx, &mut scr.gy_pad, ker, gy, h, w, pad, oh, ow),
            _ => dx_plane_taps(dx, ker, gy, h, w, k, stride, pad, oh, ow),
        }
    }
    if let Some(dw) = dw {
        if stride == 1 {
            dw_grad_s1::<AVX2>(scr, dw, src, gy, h, w, k, pad, oh, ow);
        } else {
            dw_grad_strided(dw, src, gy, h, w, k, stride, pad, oh, ow);
        }
    }
}

/// Depthwise input gradient in scatter form: the `k*k` taps walk
/// precomputed valid output ranges and add shifted axpy passes over
/// contiguous `gy` rows into `dx` (zeroed by the caller), in ascending
/// `(ky, kx)` order per element.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dx_plane_taps(
    dx: &mut [f32],
    ker: &[f32],
    gy: &[f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    for ky in 0..k {
        let (oy0, oy1) = valid_out_range(ky, pad, stride, h, oh);
        for kx in 0..k {
            let kv = ker[ky * k + kx];
            let (ox0, ox1) = valid_out_range(kx, pad, stride, w, ow);
            if ox0 >= ox1 {
                continue;
            }
            for oy in oy0..oy1 {
                // In-bounds by construction of the valid ranges.
                let sy = oy * stride + ky - pad;
                let sx0 = ox0 * stride + kx - pad;
                let gy_row = &gy[oy * ow + ox0..oy * ow + ox1];
                if stride == 1 {
                    let dst_row = &mut dx[sy * w + sx0..sy * w + sx0 + (ox1 - ox0)];
                    for (d, &g) in dst_row.iter_mut().zip(gy_row) {
                        *d += kv * g;
                    }
                } else {
                    let dst_row = &mut dx[sy * w..(sy + 1) * w];
                    for (j, &g) in gy_row.iter().enumerate() {
                        dst_row[sx0 + j * stride] += kv * g;
                    }
                }
            }
        }
    }
}

/// Depthwise weight gradient for stride > 1: per tap, a sequential sum of
/// per-row sequential dot products over the strided input columns.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dw_grad_strided(
    dw: &mut [f32],
    src: &[f32],
    gy: &[f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    debug_assert!(stride > 1, "stride 1 uses dw_grad_s1's dot8 association");
    for ky in 0..k {
        let (oy0, oy1) = valid_out_range(ky, pad, stride, h, oh);
        for kx in 0..k {
            let (ox0, ox1) = valid_out_range(kx, pad, stride, w, ow);
            if ox0 >= ox1 {
                continue;
            }
            let mut acc = 0.0f32;
            for oy in oy0..oy1 {
                let sy = oy * stride + ky - pad;
                let sx0 = ox0 * stride + kx - pad;
                let gy_row = &gy[oy * ow + ox0..oy * ow + ox1];
                let src_row = &src[sy * w..(sy + 1) * w];
                let mut row = 0.0f32;
                for (j, &g) in gy_row.iter().enumerate() {
                    row += g * src_row[sx0 + j * stride];
                }
                acc += row;
            }
            dw[ky * k + kx] += acc;
        }
    }
}

/// Rows per `dw` row group: one SIMD register holds one lane of eight
/// rows' dot products.
const DW_ROWS: usize = 8;

/// Column-major copy of the `rows x cols` plane `src`: column `c` goes to
/// `dst[c * stride..c * stride + rows]`. The `stride - rows` rows after it
/// are never written, so a zeroed `dst` keeps zero rows there for a row
/// group that runs past the last valid row.
fn transpose_rows(dst: &mut [f32], src: &[f32], rows: usize, cols: usize, stride: usize) {
    for (c, col) in dst.chunks_exact_mut(stride).take(cols).enumerate() {
        for (r, d) in col[..rows].iter_mut().enumerate() {
            *d = src[r * cols + c];
        }
    }
}

/// Stride-1 depthwise weight gradient, row-batched. Tap `(ky, kx)` of the
/// reference computation sums, over its valid output rows `oy` in
/// ascending order, `kernel::dot8(gy[oy][ox0..ox1], src[oy + ky - pad]
/// [sx0..sx0 + n])`. Here both planes are transposed once, so the `n`
/// columns of eight consecutive rows are contiguous eight-float runs, and
/// [`dw_rows8_scalar`] / [`dw_rows8_avx2`] compute the eight rows' `dot8`
/// values side by side — one vector lane per row, one accumulator per
/// `dot8` lane, then `dot8`'s lane tree and sequential tail. The row values
/// are then added in ascending row order, so every tap gets exactly the
/// reference association. A trailing group may compute rows past the last
/// valid one (over zero padding); their values are never read.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dw_grad_s1<const AVX2: bool>(
    scr: &mut DwGradScratch,
    dw: &mut [f32],
    src: &[f32],
    gy: &[f32],
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    let (gs, ss) = (oh + DW_ROWS - 1, h + DW_ROWS - 1);
    transpose_rows(&mut scr.gy_t, gy, oh, ow, gs);
    transpose_rows(&mut scr.src_t, src, h, w, ss);
    let (gy_t, src_t) = (&scr.gy_t[..], &scr.src_t[..]);
    for ky in 0..k {
        let (oy0, oy1) = valid_out_range(ky, pad, 1, h, oh);
        for kx in 0..k {
            let (ox0, ox1) = valid_out_range(kx, pad, 1, w, ow);
            if ox0 >= ox1 {
                continue;
            }
            let n = ox1 - ox0;
            let sx0 = ox0 + kx - pad;
            let mut acc = 0.0f32;
            for oy in (oy0..oy1).step_by(DW_ROWS) {
                let g = &gy_t[ox0 * gs + oy..];
                let s = &src_t[sx0 * ss + oy + ky - pad..];
                #[cfg(target_arch = "x86_64")]
                let dots = if AVX2 {
                    // SAFETY: `AVX2` is only true in the AVX2 twin, which
                    // runs after the runtime feature check.
                    unsafe { dw_rows8_avx2(g, gs, s, ss, n) }
                } else {
                    dw_rows8_scalar(g, gs, s, ss, n)
                };
                #[cfg(not(target_arch = "x86_64"))]
                let dots = dw_rows8_scalar(g, gs, s, ss, n);
                for &d in &dots[..DW_ROWS.min(oy1 - oy)] {
                    acc += d;
                }
            }
            dw[ky * k + kx] += acc;
        }
    }
}

/// Eight rows' [`kernel::dot8`] values at once: entry `r` is `dot8(g_r,
/// s_r)` where column `j` of row `r` is `g[j * gs + r]` (and `s[j * ss +
/// r]`). Accumulator `acc[l][r]` is `dot8`'s lane `l` of row `r`; the lane
/// tree and the sequential tail are `dot8`'s.
#[inline(always)]
fn dw_rows8_scalar(g: &[f32], gs: usize, s: &[f32], ss: usize, n: usize) -> [f32; DW_ROWS] {
    let mut acc = [[0.0f32; DW_ROWS]; 8];
    let chunks = n / 8;
    for c in 0..chunks {
        for (l, a) in acc.iter_mut().enumerate() {
            let j = c * 8 + l;
            let gv = &g[j * gs..j * gs + DW_ROWS];
            let sv = &s[j * ss..j * ss + DW_ROWS];
            for r in 0..DW_ROWS {
                a[r] += gv[r] * sv[r];
            }
        }
    }
    let mut tail = [0.0f32; DW_ROWS];
    for j in chunks * 8..n {
        let gv = &g[j * gs..j * gs + DW_ROWS];
        let sv = &s[j * ss..j * ss + DW_ROWS];
        for r in 0..DW_ROWS {
            tail[r] += gv[r] * sv[r];
        }
    }
    std::array::from_fn(|r| {
        (((acc[0][r] + acc[4][r]) + (acc[1][r] + acc[5][r]))
            + ((acc[2][r] + acc[6][r]) + (acc[3][r] + acc[7][r])))
            + tail[r]
    })
}

/// AVX2 twin of [`dw_rows8_scalar`]: one `ymm` register per `dot8` lane,
/// separate `_mm256_mul_ps` / `_mm256_add_ps` (no FMA, which would round
/// once instead of twice), so every lane performs the scalar body's exact
/// operations.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn dw_rows8_avx2(g: &[f32], gs: usize, s: &[f32], ss: usize, n: usize) -> [f32; DW_ROWS] {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    assert!(n == 0 || ((n - 1) * gs + DW_ROWS <= g.len() && (n - 1) * ss + DW_ROWS <= s.len()));
    let (gp, sp) = (g.as_ptr(), s.as_ptr());
    // Product of column `j`'s eight rows; only called with `j < n`.
    let prod = |j: usize| -> __m256 {
        // SAFETY: column `j < n` reads `DW_ROWS` floats from offset
        // `j * gs` / `j * ss`, in bounds by the assertion above.
        let (gv, sv) = unsafe {
            (
                _mm256_loadu_ps(gp.add(j * gs)),
                _mm256_loadu_ps(sp.add(j * ss)),
            )
        };
        _mm256_mul_ps(gv, sv)
    };
    let mut acc = [_mm256_setzero_ps(); 8];
    let chunks = n / 8;
    for c in 0..chunks {
        for (l, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_ps(*a, prod(c * 8 + l));
        }
    }
    let mut tail = _mm256_setzero_ps();
    for j in chunks * 8..n {
        tail = _mm256_add_ps(tail, prod(j));
    }
    let lo = _mm256_add_ps(_mm256_add_ps(acc[0], acc[4]), _mm256_add_ps(acc[1], acc[5]));
    let hi = _mm256_add_ps(_mm256_add_ps(acc[2], acc[6]), _mm256_add_ps(acc[3], acc[7]));
    let sum = _mm256_add_ps(_mm256_add_ps(lo, hi), tail);
    let mut dots = [0.0f32; DW_ROWS];
    // SAFETY: `dots` holds exactly `DW_ROWS` floats.
    unsafe { _mm256_storeu_ps(dots.as_mut_ptr(), sum) };
    dots
}

/// Validates NCHW input and returns `(batch, channels, h, w)`.
fn nchw(shape: &[usize], op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if shape.len() != 4 {
        return Err(TensorError::InvalidShape {
            shape: shape.to_vec(),
            reason: format!("{op} expects NCHW rank-4 input"),
        });
    }
    Ok((shape[0], shape[1], shape[2], shape[3]))
}

impl Tensor {
    /// Standard 2-D convolution.
    ///
    /// * `self` — input `[batch, in_c, h, w]`
    /// * `weight` — `[out_c, in_c, k, k]`
    /// * `bias` — optional `[out_c]`
    ///
    /// Lowered to GEMM via `im2col`; the backward pass recomputes the column
    /// matrix rather than caching it, trading FLOPs for memory (the graphs
    /// built by the EDD supernet hold many convolution nodes alive at once).
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches or a kernel larger than the
    /// padded input.
    pub fn conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        padding: usize,
    ) -> Result<Tensor> {
        let x_shape = self.shape();
        let w_shape = weight.shape();
        let (b, in_c, h, w) = nchw(&x_shape, "conv2d")?;
        if w_shape.len() != 4 || w_shape[1] != in_c || w_shape[2] != w_shape[3] {
            return Err(TensorError::ShapeMismatch {
                lhs: x_shape.clone(),
                rhs: w_shape.clone(),
                op: "conv2d",
            });
        }
        let (out_c, k) = (w_shape[0], w_shape[2]);
        if stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be >= 1".into()));
        }
        if h + 2 * padding < k || w + 2 * padding < k {
            return Err(TensorError::InvalidShape {
                shape: x_shape.clone(),
                reason: format!("kernel {k} larger than padded input {h}x{w}+{padding}"),
            });
        }
        if let Some(bt) = bias {
            if bt.shape() != [out_c] {
                return Err(TensorError::ShapeMismatch {
                    lhs: bt.shape(),
                    rhs: vec![out_c],
                    op: "conv2d bias",
                });
            }
        }
        let geom = Conv2dGeometry {
            in_channels: in_c,
            in_h: h,
            in_w: w,
            kernel: k,
            stride,
            padding,
        };
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let ckk = in_c * k * k;
        let plane = oh * ow;
        // For a 1x1 stride-1 unpadded convolution the im2col matrix *is*
        // the input image ([in_c, h*w] == [ckk, plane], byte for byte), and
        // col2im is the identity scatter. Index the image directly instead
        // of copying it — results are bitwise unchanged. This is the hot
        // shape: MBConv expand/project convolutions are all 1x1.
        let identity_cols = k == 1 && stride == 1 && padding == 0;
        let w2 = weight.value().reshape(&[out_c, ckk])?;
        let img = in_c * h * w;
        // The batched GEMM below overwrites every output element, so the
        // buffer can start uninitialized (pool-recycled without zeroing).
        let mut out = Array::uninit(&[b, out_c, oh, ow]);
        {
            let w2d = w2.data();
            // Input read through the value guard (no clone); the guard is
            // dropped at the end of this block.
            let xv = self.value();
            let xd = xv.data();
            // Parallelize over the batch; each worker reuses one
            // arena-backed column buffer (im2col overwrites every entry,
            // so the stale contents are fine). With a single image the
            // inner GEMM threads instead.
            let threads = kernel::num_threads().min(b);
            let inner = if threads > 1 {
                1
            } else {
                kernel::num_threads()
            };
            kernel::par_batch_with(
                b,
                out.data_mut(),
                out_c * plane,
                threads,
                || scratch::alloc(if identity_cols { 0 } else { ckk * plane }),
                |cols, bi, dst| {
                    let x_img = &xd[bi * img..(bi + 1) * img];
                    if identity_cols {
                        // 1x1 channel mixing is a plain GEMM, not an im2col
                        // lowering: let the selector classify it by shape.
                        kernel::matmul_into_threads(dst, w2d, x_img, out_c, ckk, plane, inner);
                    } else {
                        im2col_into(cols, x_img, &geom);
                        kernel::matmul_conv_into_threads(dst, w2d, cols, out_c, ckk, plane, inner);
                    }
                },
            );
        }
        if let Some(bt) = bias {
            let bv = bt.value_clone();
            let plane = oh * ow;
            for bi in 0..b {
                for c in 0..out_c {
                    let base = (bi * out_c + c) * plane;
                    let bval = bv.data()[c];
                    for v in &mut out.data_mut()[base..base + plane] {
                        *v += bval;
                    }
                }
            }
        }

        let x_t = self.clone();
        let w_t = weight.clone();
        let b_t = bias.cloned();
        let w2_saved = w2;
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(bt) = bias {
            parents.push(bt.clone());
        }
        Ok(Tensor::from_op(
            out,
            parents,
            Box::new(move |g| {
                let plane = oh * ow;
                // Bias gradient: sum over batch and spatial dims.
                if let Some(bt) = &b_t {
                    if bt.requires_grad() {
                        let mut db = Array::zeros(&[out_c]);
                        for bi in 0..b {
                            for c in 0..out_c {
                                let base = (bi * out_c + c) * plane;
                                db.data_mut()[c] +=
                                    g.data()[base..base + plane].iter().sum::<f32>();
                            }
                        }
                        bt.accumulate_grad_owned(db);
                    }
                }
                let need_x = x_t.requires_grad();
                let need_w = w_t.requires_grad();
                if !need_x && !need_w {
                    return;
                }
                let ckk = in_c * k * k;
                // Per-image output buffers (chunk size 0 when a gradient is
                // not needed): disjoint writes keep the batch-parallel pass
                // bitwise independent of the thread count.
                let xlen = if need_x { img } else { 0 };
                let wlen = if need_w { out_c * ckk } else { 0 };
                let mut dxd = crate::recycle::take_zeroed(b * xlen);
                let mut dwp = scratch::alloc_zeroed(b * wlen);
                {
                    let gd = g.data();
                    // The input is re-read through the parent handle at
                    // backward time (read lock on a distinct node); the
                    // guard drops with this block, before accumulation.
                    let xv = x_t.value();
                    let xd = xv.data();
                    let w2d = w2_saved.data();
                    let threads = kernel::num_threads().min(b);
                    let inner = if threads > 1 {
                        1
                    } else {
                        kernel::num_threads()
                    };
                    kernel::par_batch2_with(
                        b,
                        &mut dxd,
                        xlen,
                        &mut dwp,
                        wlen,
                        threads,
                        // Recomputed column matrix plus its gradient
                        // (arena-backed, fully overwritten before reads),
                        // reused across the worker's images. The 1x1
                        // stride-1 case needs neither buffer.
                        || {
                            let cols_len = if identity_cols { 0 } else { ckk * plane };
                            (
                                scratch::alloc(cols_len),
                                scratch::alloc(if need_x { cols_len } else { 0 }),
                            )
                        },
                        |(cols, dcols), bi, dxs, dws| {
                            let x_img = &xd[bi * img..(bi + 1) * img];
                            let gy = &gd[bi * out_c * plane..(bi + 1) * out_c * plane];
                            if identity_cols {
                                if need_w {
                                    // dW2 = dY · Xᵀ directly on the image.
                                    kernel::matmul_a_bt_into_threads(
                                        dws, gy, x_img, out_c, plane, ckk, inner,
                                    );
                                }
                                if need_x {
                                    // dX = W2ᵀ · dY straight into the image
                                    // gradient slot (col2im is the identity).
                                    kernel::matmul_at_b_into_threads(
                                        dxs, w2d, gy, out_c, ckk, plane, inner,
                                    );
                                }
                                return;
                            }
                            im2col_into(cols, x_img, &geom);
                            if need_w {
                                // dW2 = dY · colsᵀ, transpose-free.
                                kernel::matmul_a_bt_into_threads(
                                    dws, gy, cols, out_c, plane, ckk, inner,
                                );
                            }
                            if need_x {
                                // dcols = W2ᵀ · dY, transpose-free.
                                kernel::matmul_at_b_into_threads(
                                    dcols, w2d, gy, out_c, ckk, plane, inner,
                                );
                                col2im_into(dcols, &geom, dxs);
                            }
                        },
                    );
                }
                if need_w {
                    // Reduce per-image partials in fixed image order, so the
                    // weight gradient is identical for any thread count.
                    let mut dw2 = Array::zeros(&[out_c, ckk]);
                    if wlen > 0 {
                        for part in dwp.chunks_exact(wlen) {
                            for (d, &s) in dw2.data_mut().iter_mut().zip(part) {
                                *d += s;
                            }
                        }
                    }
                    w_t.accumulate_grad_owned(
                        dw2.reshape(&[out_c, in_c, k, k]).expect("weight reshape"),
                    );
                }
                if need_x {
                    let dx = Array::from_vec(dxd, &[b, in_c, h, w]).expect("dx shape");
                    x_t.accumulate_grad_owned(dx);
                }
            }),
        ))
    }

    /// Depthwise 2-D convolution: each channel is convolved with its own
    /// `k×k` filter.
    ///
    /// * `self` — input `[batch, c, h, w]`
    /// * `weight` — `[c, k, k]`
    /// * `bias` — optional `[c]`
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches.
    pub fn dwconv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        padding: usize,
    ) -> Result<Tensor> {
        let x_shape = self.shape();
        let w_shape = weight.shape();
        let (b, c, h, w) = nchw(&x_shape, "dwconv2d")?;
        if w_shape.len() != 3 || w_shape[0] != c || w_shape[1] != w_shape[2] {
            return Err(TensorError::ShapeMismatch {
                lhs: x_shape.clone(),
                rhs: w_shape.clone(),
                op: "dwconv2d",
            });
        }
        let k = w_shape[1];
        if stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be >= 1".into()));
        }
        if h + 2 * padding < k || w + 2 * padding < k {
            return Err(TensorError::InvalidShape {
                shape: x_shape.clone(),
                reason: "kernel larger than padded input".into(),
            });
        }
        if let Some(bt) = bias {
            if bt.shape() != [c] {
                return Err(TensorError::ShapeMismatch {
                    lhs: bt.shape(),
                    rhs: vec![c],
                    op: "dwconv2d bias",
                });
            }
        }
        let oh = (h + 2 * padding - k) / stride + 1;
        let ow = (w + 2 * padding - k) / stride + 1;
        // Every output plane is fully written by the stencil, so the buffer
        // can start uninitialized (pool-recycled without zeroing).
        let mut out = Array::uninit(&[b, c, oh, ow]);
        {
            // Operands read through value guards (no clones); the guards
            // drop at the end of this block.
            let xv = self.value();
            let wv = weight.value();
            let xd = xv.data();
            let wd = wv.data();
            let threads = kernel::num_threads().min(b * c);
            kernel::par_batch_with(
                b * c,
                out.data_mut(),
                oh * ow,
                threads,
                || (),
                |(), pi, dst| {
                    let ci = pi % c;
                    let src = &xd[pi * h * w..(pi + 1) * h * w];
                    let ker = &wd[ci * k * k..(ci + 1) * k * k];
                    dw_plane_forward(dst, src, ker, h, w, k, stride, padding, oh, ow);
                },
            );
        }
        if let Some(bt) = bias {
            let bv = bt.value_clone();
            let plane = oh * ow;
            for bi in 0..b {
                for ci in 0..c {
                    let base = (bi * c + ci) * plane;
                    let bval = bv.data()[ci];
                    for v in &mut out.data_mut()[base..base + plane] {
                        *v += bval;
                    }
                }
            }
        }

        let x_t = self.clone();
        let w_t = weight.clone();
        let b_t = bias.cloned();
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(bt) = bias {
            parents.push(bt.clone());
        }
        Ok(Tensor::from_op(
            out,
            parents,
            Box::new(move |g| {
                let plane = oh * ow;
                if let Some(bt) = &b_t {
                    if bt.requires_grad() {
                        let mut db = Array::zeros(&[c]);
                        for bi in 0..b {
                            for ci in 0..c {
                                let base = (bi * c + ci) * plane;
                                db.data_mut()[ci] +=
                                    g.data()[base..base + plane].iter().sum::<f32>();
                            }
                        }
                        bt.accumulate_grad_owned(db);
                    }
                }
                let need_x = x_t.requires_grad();
                let need_w = w_t.requires_grad();
                if !need_x && !need_w {
                    return;
                }
                // Per-image buffers (chunk 0 when unused); dw partials are
                // reduced in image order below for thread-count-independent
                // results.
                let img = c * h * w;
                let xlen = if need_x { img } else { 0 };
                let wlen = if need_w { c * k * k } else { 0 };
                let mut dxd = crate::recycle::take_zeroed(b * xlen);
                let mut dwp = scratch::alloc_zeroed(b * wlen);
                {
                    let gd = g.data();
                    // Operands re-read through the parent handles (read
                    // locks on distinct nodes); guards drop with this
                    // block, before accumulation.
                    let xv = x_t.value();
                    let wv = w_t.value();
                    let xd = xv.data();
                    let wd = wv.data();
                    let threads = kernel::num_threads().min(b);
                    kernel::par_batch2_with(
                        b,
                        &mut dxd,
                        xlen,
                        &mut dwp,
                        wlen,
                        threads,
                        || DwGradScratch::new(need_x, need_w, h, w, k, stride, oh, ow),
                        |scr, bi, dxs, dws| {
                            for ci in 0..c {
                                let src = &xd[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w];
                                let ker = &wd[ci * k * k..(ci + 1) * k * k];
                                let gy = &gd[(bi * c + ci) * plane..(bi * c + ci + 1) * plane];
                                let dx = if need_x {
                                    Some(&mut dxs[ci * h * w..(ci + 1) * h * w])
                                } else {
                                    None
                                };
                                let dwt = if need_w {
                                    Some(&mut dws[ci * k * k..(ci + 1) * k * k])
                                } else {
                                    None
                                };
                                dw_plane_backward(
                                    scr, dx, dwt, src, ker, gy, h, w, k, stride, padding, oh, ow,
                                );
                            }
                        },
                    );
                }
                if need_w {
                    let mut dw = Array::zeros(&[c, k, k]);
                    if wlen > 0 {
                        for part in dwp.chunks_exact(wlen) {
                            for (d, &s) in dw.data_mut().iter_mut().zip(part) {
                                *d += s;
                            }
                        }
                    }
                    w_t.accumulate_grad_owned(dw);
                }
                if need_x {
                    let dx = Array::from_vec(dxd, &[b, c, h, w]).expect("dx shape");
                    x_t.accumulate_grad_owned(dx);
                }
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv1x1_is_channel_mixing() {
        // A 1x1 conv with identity-ish weights passes channels through.
        let x = Tensor::param(
            Array::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap(),
        );
        // weight [2,2,1,1] = identity
        let w = Tensor::param(Array::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]).unwrap());
        let y = x.conv2d(&w, None, 1, 0).unwrap();
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn conv2d_known_values() {
        // 1 channel 3x3 input, 2x2 kernel of ones, stride 1, no padding:
        // each output = sum of 2x2 window.
        let x = Tensor::param(
            Array::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap(),
        );
        let w = Tensor::param(Array::ones(&[1, 1, 2, 2]));
        let y = x.conv2d(&w, None, 1, 0).unwrap();
        assert_eq!(y.shape(), vec![1, 1, 2, 2]);
        assert_eq!(y.value().data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let x = Tensor::param(Array::zeros(&[1, 1, 2, 2]));
        let w = Tensor::param(Array::ones(&[3, 1, 1, 1]));
        let bias = Tensor::param(Array::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
        let y = x.conv2d(&w, Some(&bias), 1, 0).unwrap();
        let v = y.value();
        assert_eq!(&v.data()[0..4], &[1.0; 4]);
        assert_eq!(&v.data()[4..8], &[2.0; 4]);
        assert_eq!(&v.data()[8..12], &[3.0; 4]);
    }

    #[test]
    fn conv2d_stride_and_padding_shapes() {
        let x = Tensor::param(Array::zeros(&[2, 3, 32, 32]));
        let w = Tensor::param(Array::zeros(&[8, 3, 3, 3]));
        let y = x.conv2d(&w, None, 2, 1).unwrap();
        assert_eq!(y.shape(), vec![2, 8, 16, 16]);
    }

    #[test]
    fn conv2d_validates_shapes() {
        let x = Tensor::param(Array::zeros(&[1, 3, 8, 8]));
        let w_bad_in = Tensor::param(Array::zeros(&[4, 2, 3, 3]));
        assert!(x.conv2d(&w_bad_in, None, 1, 1).is_err());
        let w = Tensor::param(Array::zeros(&[4, 3, 3, 3]));
        let b_bad = Tensor::param(Array::zeros(&[5]));
        assert!(x.conv2d(&w, Some(&b_bad), 1, 1).is_err());
        assert!(x.conv2d(&w, None, 0, 1).is_err());
        let x3 = Tensor::param(Array::zeros(&[3, 8, 8]));
        assert!(x3.conv2d(&w, None, 1, 1).is_err());
    }

    #[test]
    fn conv2d_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::param(Array::randn(&[1, 2, 5, 5], 1.0, &mut rng));
        let w = Tensor::param(Array::randn(&[3, 2, 3, 3], 0.5, &mut rng));
        let bias = Tensor::param(Array::randn(&[3], 0.5, &mut rng));
        let f =
            |x: &Tensor, w: &Tensor, b: &Tensor| x.conv2d(w, Some(b), 2, 1).unwrap().square().sum();
        let loss = f(&x, &w, &bias);
        loss.backward();
        // Check a few weight entries by central differences.
        let eps = 1e-2;
        for idx in [0usize, 7, 20] {
            let orig = w.value().data()[idx];
            w.update_value(|a| a.data_mut()[idx] = orig + eps);
            let lp = f(&x, &w, &bias).item();
            w.update_value(|a| a.data_mut()[idx] = orig - eps);
            let lm = f(&x, &w, &bias).item();
            w.update_value(|a| a.data_mut()[idx] = orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = w.grad().unwrap().data()[idx];
            assert!(
                (num - ana).abs() / num.abs().max(1.0) < 5e-2,
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
        // And an input entry.
        let idx = 12;
        let orig = x.value().data()[idx];
        x.update_value(|a| a.data_mut()[idx] = orig + eps);
        let lp = f(&x, &w, &bias).item();
        x.update_value(|a| a.data_mut()[idx] = orig - eps);
        let lm = f(&x, &w, &bias).item();
        x.update_value(|a| a.data_mut()[idx] = orig);
        let num = (lp - lm) / (2.0 * eps);
        let ana = x.grad().unwrap().data()[idx];
        assert!((num - ana).abs() / num.abs().max(1.0) < 5e-2);
    }

    #[test]
    fn dwconv_known_values() {
        // 2 channels, k=1 kernels [2],[3] scale channels independently.
        let x = Tensor::param(
            Array::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap(),
        );
        let w = Tensor::param(Array::from_vec(vec![2.0, 3.0], &[2, 1, 1]).unwrap());
        let y = x.dwconv2d(&w, None, 1, 0).unwrap();
        assert_eq!(
            y.value().data(),
            &[0.0, 2.0, 4.0, 6.0, 12.0, 15.0, 18.0, 21.0]
        );
    }

    #[test]
    fn dwconv_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::param(Array::randn(&[2, 3, 6, 6], 1.0, &mut rng));
        let w = Tensor::param(Array::randn(&[3, 3, 3], 0.5, &mut rng));
        let f = |x: &Tensor, w: &Tensor| x.dwconv2d(w, None, 2, 1).unwrap().square().sum();
        let loss = f(&x, &w);
        loss.backward();
        let eps = 1e-2;
        for idx in [0usize, 13, 26] {
            let orig = w.value().data()[idx];
            w.update_value(|a| a.data_mut()[idx] = orig + eps);
            let lp = f(&x, &w).item();
            w.update_value(|a| a.data_mut()[idx] = orig - eps);
            let lm = f(&x, &w).item();
            w.update_value(|a| a.data_mut()[idx] = orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = w.grad().unwrap().data()[idx];
            assert!(
                (num - ana).abs() / num.abs().max(1.0) < 5e-2,
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn row_batched_dots_match_dot8_per_row() {
        // Columns of eight rows, strided like the transposed planes, with
        // NaN/±Inf sprinkled in: every row value must be `dot8` of that
        // row, bit for bit, on the portable and the AVX2 path alike.
        let mut rng = StdRng::seed_from_u64(17);
        let (gs, ss) = (11, 13);
        for n in 0..=20 {
            let mut g = Array::randn(&[n.max(1) * gs], 1.0, &mut rng);
            let s = Array::randn(&[n.max(1) * ss], 1.0, &mut rng);
            if n > 3 {
                g.data_mut()[gs + 2] = f32::NAN;
                g.data_mut()[3 * gs + 5] = f32::INFINITY;
            }
            let (g, s) = (g.data(), s.data());
            let dots = dw_rows8_scalar(g, gs, s, ss, n);
            for (r, &d) in dots.iter().enumerate() {
                let gr: Vec<f32> = (0..n).map(|j| g[j * gs + r]).collect();
                let sr: Vec<f32> = (0..n).map(|j| s[j * ss + r]).collect();
                let want = kernel::dot8(&gr, &sr);
                assert!(
                    d.to_bits() == want.to_bits() || (d.is_nan() && want.is_nan()),
                    "n {n} row {r}: {d} vs dot8 {want}"
                );
            }
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support verified just above.
                let fast = unsafe { dw_rows8_avx2(g, gs, s, ss, n) };
                for (a, b) in fast.iter().zip(&dots) {
                    assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
                }
            }
        }
    }

    #[test]
    fn gather_dx_matches_scatter_dx_for_wide_padding() {
        // Padding past `k - 1` drops gy columns from the padded copy (a
        // negative shift); the gather must still equal the scatter loop.
        let mut rng = StdRng::seed_from_u64(19);
        for (h, w, pad) in [(4usize, 5usize, 3usize), (6, 9, 4), (2, 3, 5)] {
            let k = 3;
            let (oh, ow) = (h + 2 * pad - k + 1, w + 2 * pad - k + 1);
            let ker = Array::randn(&[k * k], 0.5, &mut rng);
            let gy = Array::randn(&[oh * ow], 1.0, &mut rng);
            let mut want = vec![0.0f32; h * w];
            dx_plane_taps(&mut want, ker.data(), gy.data(), h, w, k, 1, pad, oh, ow);
            let mut got = vec![f32::NAN; h * w];
            let mut padded = vec![0.0f32; oh * (w + k - 1)];
            dx_plane_s1::<3>(
                &mut got,
                &mut padded,
                ker.data(),
                gy.data(),
                h,
                w,
                pad,
                oh,
                ow,
            );
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "h {h} w {w} pad {pad}");
        }
    }

    #[test]
    fn dwconv_validates_shapes() {
        let x = Tensor::param(Array::zeros(&[1, 3, 8, 8]));
        let w_bad = Tensor::param(Array::zeros(&[2, 3, 3]));
        assert!(x.dwconv2d(&w_bad, None, 1, 1).is_err());
        let w = Tensor::param(Array::zeros(&[3, 3, 3]));
        assert!(x.dwconv2d(&w, None, 0, 1).is_err());
        let b_bad = Tensor::param(Array::zeros(&[4]));
        assert!(x.dwconv2d(&w, Some(&b_bad), 1, 1).is_err());
    }

    #[test]
    fn dwconv_stride_downsamples() {
        let x = Tensor::param(Array::zeros(&[1, 4, 16, 16]));
        let w = Tensor::param(Array::zeros(&[4, 5, 5]));
        let y = x.dwconv2d(&w, None, 2, 2).unwrap();
        assert_eq!(y.shape(), vec![1, 4, 8, 8]);
    }
}
