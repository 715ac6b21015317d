"""Deterministic forward pass of the multispectral strip fusion block.

Feature tensors are numpy arrays shaped (F, C, H, W): frames, channels,
height, width. Convolutions follow the deep-learning convention
(cross-correlation) with zero "same" padding, so every block preserves its
input shape. Weights are plain named arrays bundled in ``FusionWeights``;
nothing here trains, and two runs with the same inputs and weights produce
bit-identical outputs. ``FORWARD_SCHEMA`` lays the weights out as one run of
rows per forward block, in that block's argument order, as ``TADA_SCHEMA``
does for its block, and ``fusion_forward`` passes each block its rows.
``FusionWeights.seeded`` draws test weights from the same rows, in order,
given the six sizes of one scale: frames, channels, height, width, patch
size and cascade groups. GELU, layer norm and the FFT correlations run in
blocks of the package's one 2 MiB budget, ``geometry._block``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .containers import WEIGHTS_MAGIC, load_tensors, save_tensors
from .geometry import _block

LAYER_NORM_EPS = 1e-5
GRN_EPS = 1e-6


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian error linear unit, 0.5 * x * (1 + erf(x / sqrt(2))).

    Computed in that order block by block into the output, so each
    temporary is one block long. ``scipy.special`` is imported on the first
    call rather than with the package: it is most of the import time, and
    only the forward pass needs it.
    """
    from scipy.special import erf

    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    flat, out_flat = x.reshape(-1), out.reshape(-1)
    step = _block(3 * flat.itemsize)  # a block of x, of out and of 0.5 * x
    for start in range(0, flat.size, step):
        xb, ob = flat[start : start + step], out_flat[start : start + step]
        np.divide(xb, np.sqrt(2.0), out=ob)
        erf(ob, out=ob)
        ob += 1.0
        ob *= 0.5 * xb
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _layer_norm_rows(z: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> None:
    # (z - mean) / sqrt(var + eps) * gamma + beta over the last axis of
    # contiguous z, in place and in that order, with var taken the way np.var
    # takes it; in blocks of rows so the squares it takes are one block long.
    rows = z.reshape(-1, z.shape[-1])
    step = _block(2 * rows.shape[1] * rows.itemsize)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        np.subtract(block, block.mean(axis=-1, keepdims=True), out=block)
        var = (block * block).sum(axis=-1, keepdims=True) / block.shape[-1]
        block /= np.sqrt(var + LAYER_NORM_EPS)
        block *= gamma
        block += beta


def _as_features(x: np.ndarray, name: str = "input") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"{name}: expected a (F, C, H, W) tensor, got shape {x.shape}")
    return x


def _as_pair(vis: np.ndarray, ir: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vis, ir = _as_features(vis, "vis"), _as_features(ir, "ir")
    if vis.shape != ir.shape:
        raise ValueError(f"shape mismatch: vis {vis.shape} vs ir {ir.shape}")
    return vis, ir


def _check_odd(kh: int, kw: int, name: str) -> None:
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"{name}: kernel sides must be odd, got {(kh, kw)}")


def strip_conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Depthwise 2-D correlation with zero "same" padding.

    ``kernel`` is either (kh, kw), shared across channels, or (C, kh, kw)
    with one kernel per channel. Strip-shaped kernels such as 1x5 or 5x1
    mix along a single spatial axis.
    """
    x = _as_features(x)
    return _depthwise(x, _as_strip_kernel(kernel, x.shape[1]))[0]


def _as_strip_kernel(kernel: np.ndarray, channels: int) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim not in (2, 3):
        raise ValueError(f"strip kernel: expected rank 2 or 3, got shape {kernel.shape}")
    _check_odd(*kernel.shape[-2:], "strip kernel")
    if kernel.ndim == 3 and kernel.shape[0] != channels:
        raise ValueError(
            f"strip kernel: {kernel.shape[0]} channel kernels for "
            f"{channels} input channels"
        )
    return kernel


_FFT_MIN_TAPS = 25


def _depthwise(x: np.ndarray, *kernels: np.ndarray) -> list[np.ndarray]:
    """Depthwise "same" correlations of ``x`` with each kernel, (kh, kw) or
    (C, kh, kw).

    The path follows each kernel's tap count. Kernels of at least
    ``_FFT_MIN_TAPS`` taps multiply spectra in ``_spectral_depthwise``, in
    channel blocks of about one L2 cache, so only the outputs are full size:
    per block, one rfft2 of ``x`` serves all of them, zero-padded to fast
    sizes of at least H + rh and W + rw, where rh and rw are the largest
    half-sides (kh // 2, kw // 2) among them. The wrapped tail of a circular
    correlation that long never reaches the "same" crop, so the full
    correlation (H + kh - 1) is not needed. Smaller kernels are the fan-in-1
    case of ``_tap_sum``. Median of three best-of-5 per call, 2 BLAS threads
    on a shared 2-core VM (numpy 2.4, scipy 1.17):

    ====================  ===================  ========  ========
    kernel                input                tap sum   FFT
    ====================  ===================  ========  ========
    3x3 per channel       (3, 64, 80, 80)      27 ms     30 ms
    1x5 shared            (3, 8, 160, 80)      3.1 ms    5.0 ms
    5x1 shared            (3, 8, 160, 80)      2.7 ms    6.6 ms
    5x5 shared            (3, 32, 160, 80)     61 ms     32 ms
    5x7 shared            (3, 32, 160, 80)     85 ms     32 ms
    11x11 per channel     (3, 64, 80, 80)      268 ms    29 ms
    ====================  ===================  ========  ========

    The crossover lies between 9 and 25 taps: any threshold in (9, 35]
    routes the forward's kernels the same way. The paths differ by rounding
    only; both are deterministic run to run. ``scipy.fft`` is imported on
    the first large kernel, as ``gelu`` imports ``erf``.
    """
    large = [k for k in kernels if k.shape[-2] * k.shape[-1] >= _FFT_MIN_TAPS]
    spectral = iter(_spectral_depthwise(x, large) if large else ())
    out = []
    for kernel in kernels:
        kh, kw = kernel.shape[-2:]
        if kh * kw >= _FFT_MIN_TAPS:
            out.append(next(spectral))
        else:  # one group per channel; a shared kernel is broadcast to all
            taps = np.broadcast_to(kernel[..., None, None, :, :], (x.shape[1], 1, 1, kh, kw))
            out.append(_tap_sum(x, taps))
    return out


def _tap_sum(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # Grouped "same" correlation of x (F, C_in, H, W) with taps (G, C_out/G,
    # C_in/G, kh, kw), summed over the kh * kw taps. x is padded once, with
    # one spare zero row at the bottom, and each plane is flattened to
    # (H + kh) * Wp values, Wp = W + kw - 1. Tap (u, v) reads the strided
    # flat window [u * Wp + v, u * Wp + v + H * Wp) and applies its weights
    # by np.multiply at fan-in 1 (depthwise, or a channel multiplier), by a
    # BLAS matmul otherwise. The sums cover H rows of Wp columns; the last
    # kw - 1 of each row read across a row break and are cropped at the end.
    frames, _, height, width = x.shape
    groups, per_group, fan_in, kh, kw = taps.shape
    row = width + kw - 1
    span = height * row
    flat = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2 + 1), (kw // 2, kw // 2)))
    flat = flat.reshape(frames, groups, fan_in, (height + kh) * row)
    apply = np.multiply if fan_in == 1 else np.matmul
    acc = np.zeros((frames, groups, per_group, span))
    product = np.empty_like(acc)
    for u in range(kh):
        for v in range(kw):
            start = u * row + v
            apply(taps[..., u, v], flat[..., start : start + span], out=product)
            acc += product
    return np.ascontiguousarray(acc.reshape(frames, groups * per_group, height, row)[..., :width])


def _spectral_depthwise(x: np.ndarray, kernels: list[np.ndarray]) -> list[np.ndarray]:
    # Depthwise "same" correlations on the FFT, in channel blocks of one
    # _block budget of padded planes. Per block, one rfft2 of x serves all the
    # kernels, and each product's crop is written into that kernel's
    # output. pocketfft transforms each plane on its own, so the blocks give
    # the bits of one whole-tensor transform. Each flipped kernel is
    # zero-padded on both sides to the largest half-sides (rh, rw), so every
    # product is cropped at the same window [rh, rh + H) x [rw, rw + W). A
    # shared (kh, kw) kernel's spectrum is taken once per call, a
    # per-channel kernel's per block. Where the FFT size is below the padded
    # kernel (maps smaller than it), rfft2 drops kernel rows or columns that
    # no output in the crop reads.
    from scipy.fft import irfft2, next_fast_len, rfft2

    frames, channels, height, width = x.shape
    rh = max(k.shape[-2] for k in kernels) // 2
    rw = max(k.shape[-1] for k in kernels) // 2
    size = (next_fast_len(height + rh, True), next_fast_len(width + rw, True))

    def kernel_spectrum(kernel: np.ndarray) -> np.ndarray:
        dh, dw = rh - kernel.shape[-2] // 2, rw - kernel.shape[-1] // 2
        pad = [(0, 0)] * (kernel.ndim - 2) + [(dh, dh), (dw, dw)]
        return rfft2(np.pad(kernel[..., ::-1, ::-1], pad), size)

    shared = [kernel_spectrum(k) if k.ndim == 2 else None for k in kernels]
    out = [np.empty(x.shape) for _ in kernels]
    step = _block(frames * size[0] * size[1] * x.itemsize)  # one channel's padded planes
    for c0 in range(0, channels, step):
        block = slice(c0, c0 + step)
        spectrum = rfft2(x[:, block], size)
        for i, kernel in enumerate(kernels):
            ks = kernel_spectrum(kernel[block]) if shared[i] is None else shared[i]
            last = i == len(kernels) - 1  # the last product may take the spectrum's buffer
            product = np.multiply(spectrum, ks, out=spectrum if last else None)
            full = irfft2(product, size)
            out[i][:, block] = full[:, :, rh : rh + height, rw : rw + width]
    return out


def _as_bias(bias: np.ndarray, size: int, name: str) -> np.ndarray:
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape != (size,):
        raise ValueError(f"{name}: expected ({size},), got {bias.shape}")
    return bias


def pointwise_affine(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """1x1 convolution over channels: out[f, o] = sum_c w[o, c] x[f, c] + b[o]."""
    x = _as_features(x)
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2 or weight.shape[1] != x.shape[1]:
        raise ValueError(
            f"pointwise weight: expected (C_out, {x.shape[1]}), got {weight.shape}"
        )
    frames, c_in, height, width = x.shape
    out = weight @ x.reshape(frames, c_in, height * width)
    if bias is not None:
        out += _as_bias(bias, weight.shape[0], "pointwise bias")[:, None]
    return out.reshape(frames, weight.shape[0], height, width)


def conv2d_same(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    groups: int = 1,
) -> np.ndarray:
    """Grouped 2-D correlation with zero "same" padding.

    ``weight`` has shape (C_out, C_in / groups, kh, kw); groups == 1 is a
    full convolution, groups == C_in with unit fan-in is depthwise.

    Depthwise (unit fan-in, C_out == C_in) runs as one strip correlation,
    which multiplies FFT spectra for kernels of 25 taps or more (such as the
    11x11 channel mix). Every other case, and depthwise below 25 taps, is
    one tap sum: per kernel tap, the (G, C_out/G, C_in/G) tap weights times
    a strided window of the once-padded input, accumulated in place.
    """
    x = _as_features(x)
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 4:
        raise ValueError(f"conv weight: expected rank 4, got shape {weight.shape}")
    c_in = x.shape[1]
    c_out, fan_in, kh, kw = weight.shape
    _check_odd(kh, kw, "conv weight")
    if groups < 1 or c_in % groups or c_out % groups:
        raise ValueError(f"conv weight: {groups} groups do not divide {c_in}->{c_out}")
    if fan_in != c_in // groups:
        raise ValueError(
            f"conv weight: fan-in {fan_in} does not match {c_in} channels in "
            f"{groups} groups"
        )
    if fan_in == 1 and c_out == c_in:
        out = _depthwise(x, weight[:, 0])[0]
    else:
        out = _tap_sum(x, weight.reshape(groups, c_out // groups, fan_in, kh, kw))
    if bias is not None:
        out += _as_bias(bias, c_out, "conv bias")[:, None, None]
    return out


def _conv1d_frames(
    v: np.ndarray, weight: np.ndarray, bias: np.ndarray, name: str
) -> np.ndarray:
    # v: (F, C_in); weight: (C_out, C_in, k); zero "same" padding over frames.
    # ``name`` prefixes the tensor names (name_w, name_b) in errors.
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 3 or weight.shape[1] != v.shape[1]:
        raise ValueError(
            f"{name}_w: expected (C_out, {v.shape[1]}, k), got shape {weight.shape}"
        )
    k = weight.shape[2]
    if k % 2 == 0:
        raise ValueError(f"{name}_w: frame kernel size must be odd, got {k}")
    bias = _as_bias(bias, weight.shape[0], f"{name}_b")
    # The frames as the rows of one (C_in, F, 1) map: one product per tap.
    out = _tap_sum(v.T[None, :, :, None], weight[None, ..., None])
    return out[0, :, :, 0].T + bias


def dws_conv(
    x: np.ndarray,
    depth_kernel: np.ndarray,
    point_weight: np.ndarray,
    point_bias: np.ndarray | None = None,
) -> np.ndarray:
    """Depthwise separable convolution: per-channel spatial correlation
    followed by a 1x1 pointwise mix over channels."""
    x = _as_features(x)
    depth_kernel = np.asarray(depth_kernel, dtype=np.float64)
    if depth_kernel.ndim != 3 or depth_kernel.shape[0] != x.shape[1]:
        raise ValueError(
            f"depthwise kernel: expected ({x.shape[1]}, kh, kw), "
            f"got {depth_kernel.shape}"
        )
    return pointwise_affine(strip_conv(x, depth_kernel), point_weight, point_bias)


def interleave_rows(vis: np.ndarray, ir: np.ndarray) -> np.ndarray:
    """Stack two equally shaped tensors row by row: output row 2i is the
    visible row i, row 2i+1 the thermal row i."""
    vis, ir = _as_pair(vis, ir)
    f, c, h, w = vis.shape
    out = np.empty((f, c, 2 * h, w), dtype=np.float64)
    out[:, :, 0::2] = vis
    out[:, :, 1::2] = ir
    return out


def deinterleave_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact inverse of :func:`interleave_rows`."""
    x = _as_features(x)
    if x.shape[2] % 2:
        raise ValueError(f"cannot deinterleave odd row count {x.shape[2]}")
    return x[:, :, 0::2].copy(), x[:, :, 1::2].copy()


def cascade_strip_mix(
    x: np.ndarray, row_kernels: np.ndarray, col_kernels: np.ndarray
) -> np.ndarray:
    """Long-range mixing by a cascade of per-group strip correlations.

    Channels split into equal groups, one per kernel pair; group g sees its
    slice plus the previous group's output (group 0 has no addend), then a
    row strip pass followed by a column strip pass. Each group's output is
    written into its channels of one output tensor.
    """
    x = _as_features(x)
    row_kernels = np.asarray(row_kernels, dtype=np.float64)
    col_kernels = np.asarray(col_kernels, dtype=np.float64)
    if row_kernels.ndim != 3 or col_kernels.ndim != 3:
        raise ValueError("cascade kernels: expected (groups, kh, kw) stacks")
    n_groups = row_kernels.shape[0]
    if col_kernels.shape[0] != n_groups:
        raise ValueError(
            f"cascade kernels: {n_groups} row kernels vs "
            f"{col_kernels.shape[0]} column kernels"
        )
    channels = x.shape[1]
    if n_groups < 1 or channels % n_groups:
        raise ValueError(
            f"cascade mix: {channels} channels not divisible by {n_groups} groups"
        )
    per_group = channels // n_groups
    out = np.empty(x.shape)
    for g in range(n_groups):
        group = slice(g * per_group, (g + 1) * per_group)
        xg = x[:, group]
        if g:  # plus the previous group's output
            xg = xg + out[:, group.start - per_group : group.start]
        out[:, group] = strip_conv(strip_conv(xg, row_kernels[g]), col_kernels[g])
    return out


def gated_strip_mix(
    x: np.ndarray,
    height_kernel: np.ndarray,
    width_kernel: np.ndarray,
    gate_w1: np.ndarray,
    gate_b1: np.ndarray,
    gate_w2: np.ndarray,
    gate_b2: np.ndarray,
    gate_proj_w: np.ndarray,
    gate_proj_b: np.ndarray,
) -> np.ndarray:
    """Local strip mixing with a three-way softmax gate per frame and channel.

    r and c are strip correlations of x along the two axes. A pointwise MLP
    over channels of (r + c), average pooled over space and mapped to three
    logits per channel, gates the convex combination g1*r + g2*c + g3*x.
    """
    x = _as_features(x)
    r, c = _depthwise(
        x,
        _as_strip_kernel(height_kernel, x.shape[1]),
        _as_strip_kernel(width_kernel, x.shape[1]),
    )
    hidden = gelu(pointwise_affine(r + c, gate_w1, gate_b1))
    # The mean of an affine map is the affine map of the mean: pool first.
    pooled = hidden.mean(axis=(2, 3), keepdims=True)
    pooled = pointwise_affine(pooled, gate_w2, gate_b2)[:, :, 0, 0]  # (F, C)
    gate_proj_w = np.asarray(gate_proj_w, dtype=np.float64)
    gate_proj_b = np.asarray(gate_proj_b, dtype=np.float64)
    if gate_proj_w.shape != (3,) or gate_proj_b.shape != (3,):
        raise ValueError("gate projection: expected three logit weights and biases")
    logits = pooled[:, :, None] * gate_proj_w + gate_proj_b  # (F, C, 3)
    gates = softmax(logits, axis=-1)
    g1 = gates[:, :, 0][:, :, None, None]
    g2 = gates[:, :, 1][:, :, None, None]
    g3 = gates[:, :, 2][:, :, None, None]
    # g1*r + g2*c + g3*x in that order, in the buffers of r and c.
    r *= g1
    c *= g2
    r += c
    r += np.multiply(g3, x, out=c)
    return r


def global_response_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Global response normalization.

    Per-channel L2 norm over spatial positions, divided by the cross-channel
    mean of those norms, then y = gamma * (x * n) + beta + x. A small
    epsilon in the division guards the all-zero signal.
    """
    x = _as_features(x)
    gamma = _as_bias(gamma, x.shape[1], "grn_gamma")
    beta = _as_bias(beta, x.shape[1], "grn_beta")
    norms = np.sqrt((x * x).sum(axis=(2, 3), keepdims=True))  # (F, C, 1, 1)
    scaled = norms / (norms.mean(axis=1, keepdims=True) + GRN_EPS)
    # gamma * (x * n) + beta + x in that order, in one buffer.
    out = x * scaled
    out *= gamma[:, None, None]
    out += beta[:, None, None]
    out += x
    return out


def channel_mix(
    x: np.ndarray,
    conv_weight: np.ndarray,
    conv_bias: np.ndarray,
    grn_gamma: np.ndarray,
    grn_beta: np.ndarray,
    mlp_w1: np.ndarray,
    mlp_b1: np.ndarray,
    mlp_w2: np.ndarray,
    mlp_b2: np.ndarray,
) -> np.ndarray:
    """Channel interaction block with a residual connection.

    Grouped large-kernel correlation, global response normalization, then a
    two-layer pointwise MLP over channels with GELU activation; the block
    input is added back at the end. The correlation's groups are the
    channels over the fan-in of ``conv_weight`` (fan-in 1 is depthwise).
    """
    x = _as_features(x)
    shape = np.shape(conv_weight)  # another rank gets conv2d_same's error
    groups = max(1, x.shape[1] // max(shape[1], 1)) if len(shape) == 4 else 1
    # Each stage rebinds y, so its input is freed as soon as it returns.
    y = conv2d_same(x, conv_weight, conv_bias, groups=groups)
    y = global_response_norm(y, grn_gamma, grn_beta)
    y = pointwise_affine(y, mlp_w1, mlp_b1)
    y = gelu(y)
    y = pointwise_affine(y, mlp_w2, mlp_b2)
    y += x
    return y


def _as_patch_size(value) -> int:
    # One positive integer: a fraction such as 4.4 would otherwise run
    # silently as 4, and NaN or inf would fail in int().
    value = np.asarray(value, dtype=np.float64)
    if value.size != 1 or not (value.item() >= 1 and value.item().is_integer()):
        raise ValueError(f"patch_size: expected one positive integer, got {value}")
    return int(value.item())


def _tiles(x: np.ndarray, s: int) -> np.ndarray:
    # The (F, H/s, W/s, C, s, s) tile view of an (F, C, H, W) tensor: a
    # view of contiguous x, so it can also be written through.
    f, c, h, w = x.shape
    if s < 1 or h % s or w % s:
        raise ValueError(f"patch size {s} does not divide spatial dims {(h, w)}")
    return x.reshape(f, c, h // s, s, w // s, s).transpose(0, 2, 4, 1, 3, 5)


def temporal_fuse(
    vis: np.ndarray,
    ir: np.ndarray,
    ln_gamma: np.ndarray,
    ln_beta: np.ndarray,
    mlp2_weight: np.ndarray,
    mlp2_bias: np.ndarray,
    patch_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-time mixing of patched features with residual connections.

    Both modalities are cut into patches, concatenated along the patch
    feature axis (visible first) and layer normalized over that axis, as
    one contiguous (F*P, C*2S) matrix, in blocks of rows. One affine map
    over its rows mixes the merged frame/patch axis, and the mixed patches
    are added to the inputs through the inverse of the patch view.
    """
    vis, ir = _as_pair(vis, ir)
    f, c, h, w = vis.shape
    s = _as_patch_size(patch_size)
    vis_tiles, ir_tiles = _tiles(vis, s), _tiles(ir, s)
    p = (h // s) * (w // s)
    ln_gamma = _as_bias(ln_gamma, 2 * s * s, "temporal_ln_gamma")
    ln_beta = _as_bias(ln_beta, 2 * s * s, "temporal_ln_beta")
    mlp2_weight = np.asarray(mlp2_weight, dtype=np.float64)
    if mlp2_weight.shape != (f * p, f * p):
        raise ValueError(
            f"mlp2_weight: expected ({f * p}, {f * p}) for F={f}, P={p}, "
            f"got {mlp2_weight.shape}"
        )
    mlp2_bias = _as_bias(mlp2_bias, f * p, "mlp2_bias")
    # (F, P, C, 2S) patches; each (F, H/s, W/s, C, 2, s, s) pair is (vis, ir).
    z = np.empty((f, p, c, 2 * s * s))
    pairs = z.reshape(f, h // s, w // s, c, 2, s, s)
    pairs[..., 0, :, :] = vis_tiles
    pairs[..., 1, :, :] = ir_tiles
    _layer_norm_rows(z, ln_gamma, ln_beta)
    mixed = mlp2_weight @ z.reshape(f * p, c * 2 * s * s)
    del z, pairs  # freed before the outputs are allocated
    mixed += mlp2_bias[:, None]
    mixed = mixed.reshape(f, h // s, w // s, c, 2, s, s)
    vis_out, ir_out = np.empty(vis.shape), np.empty(ir.shape)
    np.add(vis_tiles, mixed[..., 0, :, :], out=_tiles(vis_out, s))
    np.add(ir_tiles, mixed[..., 1, :, :], out=_tiles(ir_out, s))
    return vis_out, ir_out


def temporal_adaptive_conv(
    x: np.ndarray,
    base_weight: np.ndarray,
    base_bias: np.ndarray,
    conv1_w: np.ndarray,
    conv1_b: np.ndarray,
    conv2_w: np.ndarray,
    conv2_b: np.ndarray,
    fc_w: np.ndarray,
    fc_b: np.ndarray,
) -> np.ndarray:
    """Per-frame convolution with temporally calibrated kernels.

    A frame descriptor (global average pool over space) passes through two
    1-D correlations along the frame axis with a GELU in between, then a
    linear projection to one factor per output channel. The factors offset
    1.0, so zeroed calibration weights reproduce the plain base convolution;
    frame t is convolved with the base kernel scaled per output channel.
    Scaling output channels commutes with the convolution, so the whole
    clip runs as one base convolution whose output is scaled per frame.

    This is a standalone block: ``fusion_forward`` does not call it. Its
    ``tada_*`` tensors ride along in the weights container. A non-finite
    value in any of them raises, naming its ``TADA_SCHEMA`` tensor, and so
    does a clip with an empty axis, naming its shape.
    """
    x = _as_features(x)
    if 0 in x.shape:
        raise ValueError(f"clip: expected (F, C, H, W), no axis empty, got shape {x.shape}")
    weights = (base_weight, base_bias, conv1_w, conv1_b, conv2_w, conv2_b, fc_w, fc_b)
    for spec, value in zip(TADA_SCHEMA, weights):
        if not np.isfinite(np.asarray(value, dtype=np.float64)).all():
            raise ValueError(f"tensor {spec.name!r} has non-finite values")
    base_weight = np.asarray(base_weight, dtype=np.float64)
    if base_weight.ndim != 4:
        raise ValueError(f"base weight: expected rank 4, got shape {base_weight.shape}")
    c_out = base_weight.shape[0]
    base_bias = _as_bias(base_bias, c_out, "conv bias")
    descriptor = x.mean(axis=(2, 3))  # (F, C_in)
    t = gelu(_conv1d_frames(descriptor, conv1_w, conv1_b, "conv1"))
    t = _conv1d_frames(t, conv2_w, conv2_b, "conv2")
    fc_w = np.asarray(fc_w, dtype=np.float64)
    if fc_w.shape != (c_out, t.shape[1]):
        raise ValueError(f"fc_w: expected ({c_out}, {t.shape[1]}), got shape {fc_w.shape}")
    alpha = 1.0 + t @ fc_w.T + _as_bias(fc_b, c_out, "fc_b")  # (F, C_out)
    out = conv2d_same(x, base_weight)
    out *= alpha[:, :, None, None]
    out += base_bias[:, None, None]
    return out


class _InputSizeError(ValueError):
    """A weights error that a size of the input takes part in, so a caller
    can name the input's file as well as the weights'."""


def _input_dims(
    frames: int, channels: int, height: int, width: int, patch_size: int
) -> dict[str, int]:
    """Sizes the weight layout derives from a (frames, channels, height,
    width) input cut into patch_size patches."""
    given = {"frames": frames, "channels": channels, "height": height, "width": width}
    for name, value in given.items():
        if value < 1:
            raise _InputSizeError(f"{name} must be >= 1, got {value}")
    if channels % 2:
        raise _InputSizeError(f"channels must be even, got {channels}")
    s = patch_size
    if s < 1 or height % s or width % s:
        raise _InputSizeError(f"patch_size {s} does not divide {(height, width)}")
    return {
        "c": channels,
        "half": channels // 2,
        "two_s": 2 * s * s,
        "fp": frames * (height // s) * (width // s),
    }


def _check_cascade_groups(groups: int, half: int, name: str) -> None:
    if groups < 1 or half % groups:
        raise ValueError(f"{name}: {groups} groups do not divide {half} mixer channels")


class WeightSpec(NamedTuple):
    """One row of the weight layout: a tensor name, its dims, and the init
    of seeded weights, ``offset + scale * N(0, 1)``."""

    name: str
    dims: tuple[int | str, ...]
    scale: float
    offset: float = 0.0


_W, _B = 0.1, 0.01  # seeded scales of weights and of biases

# A dim is an int; an input size (c, half, two_s, fp, from _input_dims); a
# shared size, bound by the first row that names it and checked on every
# later row; or a kernel side k_N that each tensor picks for itself (the
# blocks check that it is odd) and that seeded weights set to N. Each forward
# block has a run of rows in its argument order; the runs are in seeding order.
_DWS_VIS = (
    WeightSpec("dws_depth_vis", ("c", "k_3", "k_3"), _W),
    WeightSpec("dws_point_vis", ("c", "c"), _W),
    WeightSpec("dws_point_bias_vis", ("c",), _B),
)
_DWS_IR = (
    WeightSpec("dws_depth_ir", ("c", "k_3", "k_3"), _W),
    WeightSpec("dws_point_ir", ("c", "c"), _W),
    WeightSpec("dws_point_bias_ir", ("c",), _B),
)
_MLP1 = (WeightSpec("mlp1_weight", ("c", "c"), _W), WeightSpec("mlp1_bias", ("c",), _B))
_CASCADE = (
    WeightSpec("cascade_row_kernels", ("cascade_groups", 1, "k_5"), _W),
    WeightSpec("cascade_col_kernels", ("cascade_groups", "k_5", 1), _W),
)
_GATED = (
    WeightSpec("local_height_kernel", ("k_5", "k_7"), _W),
    WeightSpec("local_width_kernel", ("k_7", "k_5"), _W),
    WeightSpec("gate_w1", ("gate_hidden", "half"), _W),
    WeightSpec("gate_b1", ("gate_hidden",), _B),
    WeightSpec("gate_w2", ("half", "gate_hidden"), _W),
    WeightSpec("gate_b2", ("half",), _B),
    WeightSpec("gate_proj_weight", (3,), _W),
    WeightSpec("gate_proj_bias", (3,), _B),
)
_MERGE = (WeightSpec("merge_weight", ("c", "c"), _W), WeightSpec("merge_bias", ("c",), _B))
_CHANNEL_MIX = (
    WeightSpec("mix_conv_weight", ("c", "mix_fan_in", "k_11", "k_11"), _W),
    WeightSpec("mix_conv_bias", ("c",), _B),
    WeightSpec("grn_gamma", ("c",), _W),
    WeightSpec("grn_beta", ("c",), _B),
    WeightSpec("mix_mlp_w1", ("mix_hidden", "c"), _W),
    WeightSpec("mix_mlp_b1", ("mix_hidden",), _B),
    WeightSpec("mix_mlp_w2", ("c", "mix_hidden"), _W),
    WeightSpec("mix_mlp_b2", ("c",), _B),
)
_TEMPORAL = (
    WeightSpec("temporal_ln_gamma", ("two_s",), _B, offset=1.0),
    WeightSpec("temporal_ln_beta", ("two_s",), _B),
    WeightSpec("mlp2_weight", ("fp", "fp"), _W),
    WeightSpec("mlp2_bias", ("fp",), _B),
)
FORWARD_SCHEMA = _DWS_VIS + _DWS_IR + _MLP1 + _CASCADE + _GATED + _MERGE + _CHANNEL_MIX + _TEMPORAL

# The standalone temporal_adaptive_conv, in its argument order; seeded after
# the forward tensors. The container also holds a scalar "patch_size".
TADA_SCHEMA = (
    WeightSpec("tada_base_weight", ("c", "c", "k_3", "k_3"), _W),
    WeightSpec("tada_base_bias", ("c",), _B),
    WeightSpec("tada_conv1_weight", ("reduce", "c", "k_3"), _W),
    WeightSpec("tada_conv1_bias", ("reduce",), _B),
    WeightSpec("tada_conv2_weight", ("reduce", "reduce", "k_3"), _W),
    WeightSpec("tada_conv2_bias", ("reduce",), _B),
    WeightSpec("tada_fc_weight", ("c", "reduce"), _W),
    WeightSpec("tada_fc_bias", ("c",), _B),
)


class FusionWeights:
    """Named-tensor bundle holding every learned parameter of the block."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.tensors = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}

    def tensor(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise ValueError(f"missing weight tensor {name!r}") from None

    @property
    def patch_size(self) -> int:
        return _as_patch_size(self.tensor("patch_size"))

    @classmethod
    def seeded(
        cls, frames: int = 3, channels: int = 8, height: int = 16, width: int = 16,
        patch_size: int = 4, cascade_groups: int = 4, seed: int = 0,
    ) -> "FusionWeights":
        """Deterministic random weights for testing and demos: the schema
        rows drawn in order at the sizes of a (frames, channels, height,
        width) input cut into patch_size patches, with the cascade mixer's
        channels / 2 in cascade_groups groups. Each size is at least 1,
        channels are even, and the patches and groups divide what they
        split."""
        sizes = _input_dims(frames, channels, height, width, patch_size)
        _check_cascade_groups(cascade_groups, sizes["half"], "cascade_groups")
        rng = np.random.default_rng(seed)
        sizes.update(
            cascade_groups=cascade_groups,
            gate_hidden=channels // 2,
            mix_hidden=channels,
            mix_fan_in=1,  # depthwise channel-mix convolution
            reduce=max(channels // 4, 1),
        )
        tensors: dict[str, np.ndarray] = {}
        for spec in FORWARD_SCHEMA + TADA_SCHEMA:
            shape = tuple(
                d if isinstance(d, int) else int(d[2:]) if d.startswith("k_") else sizes[d]
                for d in spec.dims
            )
            tensors[spec.name] = spec.offset + rng.standard_normal(shape) * spec.scale
        tensors["patch_size"] = np.float64(patch_size)
        return cls(tensors)

    @classmethod
    def load(cls, path) -> "FusionWeights":
        return cls(load_tensors(path, WEIGHTS_MAGIC))

    def save(self, path) -> None:
        save_tensors(path, self.tensors, WEIGHTS_MAGIC)

    def mix_groups(self) -> int:
        conv = self.tensor("mix_conv_weight")
        channels = conv.shape[0]
        fan_in = conv.shape[1]
        if fan_in < 1 or channels % fan_in:
            raise ValueError(
                f"mix_conv_weight: fan-in {fan_in} does not divide {channels} channels"
            )
        return channels // fan_in

    def validate(self, frames: int, channels: int, height: int, width: int) -> None:
        """Check every ``FORWARD_SCHEMA`` tensor against a (frames, channels,
        height, width) input, and that its values are finite; an error
        names the tensor. Where the input takes part, the error is an
        ``_InputSizeError``: a bad input size, or a misfit in the first row
        to use c or fp (half follows c, and two_s comes from the weights'
        own patch size). A misfit in a later row is between the weights'
        own tensors."""
        sizes = _input_dims(frames, channels, height, width, self.patch_size)
        bound_by: dict[str, str] = {}
        unmet = {"c", "fp"}
        for spec in FORWARD_SCHEMA:
            value = self.tensor(spec.name)
            shape = value.shape
            ok = len(shape) == len(spec.dims)
            for dim, actual in zip(spec.dims, shape):
                if str(dim).startswith("k_"):
                    continue
                if isinstance(dim, str) and dim not in sizes:
                    sizes[dim] = actual
                    bound_by[dim] = spec.name
                ok = ok and actual == (dim if isinstance(dim, int) else sizes[dim])
            if not ok:
                known = {d: sizes[d] for d in spec.dims if d in sizes}
                bound = "".join(f"; {d} from {bound_by[d]}" for d in known if d in bound_by)
                error = _InputSizeError if unmet.intersection(spec.dims) else ValueError
                raise error(
                    f"{spec.name}: expected shape {spec.dims} with {known}{bound}, got {shape}"
                )
            unmet.difference_update(spec.dims)
            if not np.isfinite(value).all():
                raise ValueError(f"tensor {spec.name!r} has non-finite values")
        _check_cascade_groups(
            sizes["cascade_groups"], sizes["half"], "cascade_row_kernels"
        )
        self.mix_groups()


@contextmanager
def _named_block(name: str):
    # Prefix sub-block failures with the block that raised them.
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from err


def fusion_forward(
    vis: np.ndarray, ir: np.ndarray, weights: FusionWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Full fusion block forward pass over one feature scale.

    Per-modality depthwise separable convolution and a shared pointwise
    affine produce the first residual taps; the taps are row-interleaved,
    split into channel halves for the cascade and gated strip mixers,
    merged by a pointwise affine, deinterleaved and added back to the taps;
    a shared channel-mixing block per modality yields the second taps, which
    feed the temporal fusion stage. Returns (vis_fused, ir_fused) with the
    input shape.
    """
    vis, ir = _as_pair(vis, ir)
    f, c, h, w = vis.shape
    weights.validate(f, c, h, w)

    def rows(block: tuple[WeightSpec, ...]) -> list[np.ndarray]:
        return [weights.tensor(s.name) for s in block]

    # Each intermediate is dropped after its last use, so the working set
    # holds a few feature maps at a time rather than every one.
    with _named_block("dws"):
        vis_pre = dws_conv(vis, *rows(_DWS_VIS))
        del vis  # freed here unless the caller still holds it
        ir_pre = dws_conv(ir, *rows(_DWS_IR))
        del ir
    with _named_block("mlp1"):
        vis1 = pointwise_affine(vis_pre, *rows(_MLP1))
        del vis_pre
        ir1 = pointwise_affine(ir_pre, *rows(_MLP1))
        del ir_pre

    # The first taps live on as the even (visible) and odd (thermal) rows.
    stacked = interleave_rows(vis1, ir1)
    del vis1, ir1
    half = c // 2
    # The gated mixer's working set is the larger, so it runs before the
    # cascade's output exists.
    with _named_block("gated mix"):
        local = gated_strip_mix(stacked[:, half:], *rows(_GATED))
    with _named_block("cascade mix"):
        long_range = cascade_strip_mix(stacked[:, :half], *rows(_CASCADE))
    with _named_block("merge"):
        merge_in = np.concatenate([long_range, local], axis=1)
        del long_range, local
        merged = pointwise_affine(merge_in, *rows(_MERGE))
        del merge_in
    vis_mid = merged[:, :, 0::2] + stacked[:, :, 0::2]  # deinterleaved, plus the first taps
    ir_mid = merged[:, :, 1::2] + stacked[:, :, 1::2]
    del merged, stacked

    with _named_block("channel mix"):
        vis2 = channel_mix(vis_mid, *rows(_CHANNEL_MIX))
        del vis_mid
        ir2 = channel_mix(ir_mid, *rows(_CHANNEL_MIX))
        del ir_mid
    with _named_block("temporal fuse"):
        return temporal_fuse(vis2, ir2, *rows(_TEMPORAL), weights.patch_size)
