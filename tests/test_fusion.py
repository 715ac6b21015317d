"""Fusion block forward pass: per-op oracles, degenerate forms, determinism."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from msfusion import fusion as fusion_module
from msfusion.fusion import (
    FORWARD_SCHEMA,
    TADA_SCHEMA,
    FusionConfig,
    FusionWeights,
    cascade_strip_mix,
    channel_mix,
    conv2d_same,
    deinterleave_rows,
    dws_conv,
    fusion_forward,
    gated_strip_mix,
    gelu,
    global_response_norm,
    interleave_rows,
    pointwise_affine,
    softmax,
    strip_conv,
    temporal_adaptive_conv,
    temporal_fuse,
)
from oracles import (
    gelu_ref,
    loop_conv1d_frames,
    loop_conv2d,
    loop_strip_conv,
    reference_forward,
    shift_depthwise,
)

RNG = np.random.default_rng


def rand_features(shape, seed):
    return RNG(seed).standard_normal(shape)


def delta_kernel(kh, kw):
    k = np.zeros((kh, kw))
    k[kh // 2, kw // 2] = 1.0
    return k


class TestStripConv:
    def test_centered_delta_is_identity(self):
        x = rand_features((2, 3, 5, 6), 0)
        np.testing.assert_array_equal(strip_conv(x, delta_kernel(3, 3)), x)

    def test_ones_kernel_hand_case(self):
        # all-ones 1x3 kernel over the row [1, 2, 3] with zero padding
        x = np.array([[[[1.0, 2.0, 3.0]]]])
        out = strip_conv(x, np.ones((1, 3)))
        np.testing.assert_allclose(out[0, 0, 0], [3.0, 6.0, 5.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            strip_conv(rand_features((1, 1, 4, 4), 1), np.ones((2, 3)))

    def test_per_channel_kernel_count_checked(self):
        with pytest.raises(ValueError, match="channel"):
            strip_conv(rand_features((1, 3, 4, 4), 1), np.ones((2, 1, 3)))

    @pytest.mark.parametrize("kshape", [(1, 5), (5, 1), (5, 7), (3, 3)])
    def test_matches_naive_loop(self, kshape):
        x = rand_features((2, 3, 8, 9), 2)
        kernel = RNG(3).standard_normal(kshape)
        np.testing.assert_allclose(
            strip_conv(x, kernel), loop_strip_conv(x, kernel), atol=1e-10
        )

    def test_per_channel_kernels_match_naive_loop(self):
        x = rand_features((2, 4, 6, 6), 4)
        kernels = RNG(5).standard_normal((4, 3, 5))
        np.testing.assert_allclose(
            strip_conv(x, kernels), loop_strip_conv(x, kernels), atol=1e-10
        )


class TestLargeKernelPath:
    # Kernels of 25 taps or more correlate on the FFT, smaller ones as a
    # tap sum; the edge cases pad the map past the kernel, or from a prime
    # size. The empty maps run kernels on both sides of the threshold.
    CASES = pytest.mark.parametrize(
        "x_shape, ksize",
        [
            ((2, 3, 8, 9), (5, 7)),
            ((2, 3, 8, 9), (7, 5)),
            ((2, 3, 12, 10), (11, 11)),
            ((1, 2, 3, 4), (11, 11)),  # map smaller than the kernel
            ((2, 3, 1, 1), (11, 11)),  # 1x1 map
            ((1, 2, 31, 7), (11, 11)),  # 31 + 11 - 1 and 7 + 11 - 1 are prime
            ((1, 2, 8, 6), (11, 11)),  # 8 + 11 // 2 and 6 + 11 // 2 are prime
            ((2, 2, 0, 5), (3, 3)),
            ((1, 2, 4, 0), (3, 3)),
            ((1, 4, 0, 4), (1, 5)),
            ((1, 4, 0, 4), (5, 1)),
            ((2, 2, 0, 5), (11, 11)),
            ((1, 2, 4, 0), (5, 7)),
            ((2, 3, 8, 9), (1, 1)),
            ((2, 3, 8, 9), (3, 3)),
            ((2, 3, 8, 9), (1, 5)),
            ((2, 3, 8, 9), (5, 1)),
            ((2, 3, 1, 1), (3, 3)),  # 1x1 map, tap sum
            ((1, 2, 2, 3), (5, 1)),  # maps smaller than the strip
            ((1, 2, 3, 2), (1, 5)),
            ((1, 2, 0, 3), (1, 1)),
            ((1, 2, 3, 0), (1, 1)),
        ],
    )

    @CASES
    @pytest.mark.parametrize("per_channel", [False, True], ids=["shared", "per_channel"])
    def test_strip_conv_matches_naive_loop(self, x_shape, ksize, per_channel):
        x = rand_features(x_shape, 90)
        kernel = RNG(91).standard_normal((x_shape[1],) * per_channel + ksize)
        np.testing.assert_allclose(
            strip_conv(x, kernel), loop_strip_conv(x, kernel), rtol=0, atol=1e-10
        )

    @CASES
    def test_depthwise_conv2d_matches_naive_loop(self, x_shape, ksize):
        # Multiplier 2 (fan-in 1, C_out = 2 C_in) is always a tap sum.
        x = rand_features(x_shape, 92)
        channels = x_shape[1]
        for multiplier in (1, 2):
            weight = RNG(93).standard_normal((multiplier * channels, 1) + ksize)
            bias = RNG(94).standard_normal(multiplier * channels)
            np.testing.assert_allclose(
                conv2d_same(x, weight, bias, groups=channels),
                loop_conv2d(x, weight, bias, groups=channels),
                rtol=0,
                atol=1e-10,
            )


def _one_shot_spectral(x, kernels):
    # _spectral_depthwise as one whole-tensor transform: the bits its
    # channel blocks must give.
    from scipy.fft import irfft2, next_fast_len, rfft2

    height, width = x.shape[2:]
    rh = max(k.shape[-2] for k in kernels) // 2
    rw = max(k.shape[-1] for k in kernels) // 2
    size = (next_fast_len(height + rh, True), next_fast_len(width + rw, True))
    spectrum = rfft2(x, size)
    out = []
    for kernel in kernels:
        dh, dw = rh - kernel.shape[-2] // 2, rw - kernel.shape[-1] // 2
        pad = [(0, 0)] * (kernel.ndim - 2) + [(dh, dh), (dw, dw)]
        product = spectrum * rfft2(np.pad(kernel[..., ::-1, ::-1], pad), size)
        out.append(irfft2(product, size)[:, :, rh : rh + height, rw : rw + width])
    return out


def _one_shot_gelu(x):
    from scipy.special import erf

    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _one_shot_temporal_fuse(vis, ir, gamma, beta, weight, bias, s):
    # temporal_fuse with its layer norm over the whole patch matrix at once.
    f, c, h, w = vis.shape
    z = np.concatenate([_patches(vis, s), _patches(ir, s)], axis=-1)
    centered = z - z.mean(axis=-1, keepdims=True)
    var = (centered * centered).sum(axis=-1, keepdims=True) / z.shape[-1]
    normed = centered / np.sqrt(var + 1e-5) * gamma + beta
    mixed = (weight @ normed.reshape(weight.shape[0], -1) + bias[:, None]).reshape(z.shape)
    return (
        vis + _unpatch(mixed[..., : s * s], s, h, w),
        ir + _unpatch(mixed[..., s * s :], s, h, w),
    )


class TestBlockEdges:
    # The FFT, GELU and layer-norm kernels run in blocks of about one L2
    # cache. Each must give the bits of its one-shot form: at a patched
    # block of 4 items, on counts one below, at and one above the block
    # (and at several blocks), and at the real block size.
    STEP = 4

    @pytest.fixture
    def step(self, monkeypatch):
        monkeypatch.setattr(fusion_module, "_block", lambda item_bytes: self.STEP)
        return self.STEP

    @pytest.mark.parametrize("channels", [STEP - 1, STEP, STEP + 1, 3 * STEP + 2])
    @pytest.mark.parametrize(
        "x_side, ksizes",
        [
            ((9, 8), [(11, 11)]),
            ((16, 8), [(5, 7), (7, 5)]),  # two kernels share each block's transform
            ((3, 2), [(11, 11)]),  # map smaller than the kernel
            ((2, 5), [(7, 9), (5, 5)]),
        ],
    )
    @pytest.mark.parametrize("per_channel", [False, True], ids=["shared", "per_channel"])
    def test_spectral_depthwise_blocks(self, step, channels, x_side, ksizes, per_channel):
        x = rand_features((2, channels) + x_side, 95)
        rng = RNG(96)
        kernels = [rng.standard_normal((channels,) * per_channel + k) for k in ksizes]
        got = fusion_module._spectral_depthwise(x, kernels)
        for a, b in zip(got, _one_shot_spectral(x, kernels)):
            assert np.array_equal(a, b)

    def test_spectral_depthwise_at_the_real_block(self):
        # 50 channels of 40x40 planes padded to 45x45 over 3 frames: 43 per
        # 2 MB block, so two blocks.
        x = rand_features((3, 50, 40, 40), 97)
        kernels = [RNG(98).standard_normal((50, 11, 11)), RNG(99).standard_normal((11, 11))]
        got = fusion_module._spectral_depthwise(x, kernels)
        for a, b in zip(got, _one_shot_spectral(x, kernels)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("size", [0, STEP - 1, STEP, STEP + 1, 3 * STEP + 2])
    def test_gelu_blocks(self, step, size):
        x = 4.0 * rand_features(size, 100)
        assert np.array_equal(gelu(x), _one_shot_gelu(x))

    # 87,381 values per 2 MB block of x, the output and 0.5 * x.
    @pytest.mark.parametrize("size", [87380, 87381, 87382, 2 * 87381 + 5])
    def test_gelu_at_the_real_block(self, size):
        x = 4.0 * rand_features(size, 101)
        assert np.array_equal(gelu(x), _one_shot_gelu(x))
        assert np.array_equal(gelu(x.reshape(1, -1, 1)), _one_shot_gelu(x).reshape(1, -1, 1))

    @pytest.mark.parametrize("rows", [STEP - 1, STEP, STEP + 1, 3 * STEP + 2])
    def test_temporal_fuse_layer_norm_blocks(self, step, rows):
        # One frame of one 2x2 patch per channel: C rows of 2S = 8 values.
        vis, ir = 3.0 * rand_features((2, 1, rows, 2, 2), 102) + 1.0
        rng = RNG(103)
        args = (*rng.standard_normal((2, 8)), rng.standard_normal((1, 1)), rng.standard_normal(1), 2)
        got = temporal_fuse(vis, ir, *args)
        for a, b in zip(got, _one_shot_temporal_fuse(vis, ir, *args)):
            assert np.array_equal(a, b)

    def test_temporal_fuse_layer_norm_at_the_real_block(self):
        # F*P*C = 3 * 16 * 200 = 9,600 rows of 2S = 32 values, 4,096 rows
        # per block: two full blocks and a part.
        vis, ir = rand_features((2, 3, 200, 16, 16), 104)
        rng = RNG(105)
        args = (*rng.standard_normal((2, 32)), rng.standard_normal((48, 48)), rng.standard_normal(48), 4)
        got = temporal_fuse(vis, ir, *args)
        for a, b in zip(got, _one_shot_temporal_fuse(vis, ir, *args)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(0, 3, 6, 6), (2, 0, 6, 6), (2, 3, 0, 6), (2, 3, 6, 0)])
    def test_empty_axes_give_empty_outputs(self, shape):
        # 1x1, 3x3, 1x5 and 5x1 take the tap sum, 5x7 and 11x11 the FFT.
        x = np.ones(shape)
        for ksize in ((1, 1), (3, 3), (1, 5), (5, 1), (5, 7), (11, 11)):
            for kernel in (np.ones(ksize), np.ones((shape[1], *ksize))):
                np.testing.assert_array_equal(strip_conv(x, kernel), shift_depthwise(x, kernel))
            if shape[1]:  # depthwise needs a channel to group by
                for multiplier in (1, 2):
                    weight = np.ones((multiplier * shape[1], 1, *ksize))
                    bias = np.ones(multiplier * shape[1])
                    np.testing.assert_array_equal(
                        conv2d_same(x, weight, bias, groups=shape[1]),
                        loop_conv2d(x, weight, bias, groups=shape[1]),
                    )
        assert gelu(x).shape == shape


class TestDwsConv:
    def test_identity_kernels(self):
        x = rand_features((2, 3, 4, 4), 6)
        depth = np.stack([delta_kernel(3, 3)] * 3)
        np.testing.assert_allclose(dws_conv(x, depth, np.eye(3)), x, atol=1e-12)

    def test_unit_spatial_dims_reduce_to_pointwise(self):
        x = rand_features((2, 3, 1, 1), 7)
        depth = np.stack([delta_kernel(1, 1)] * 3)
        weight = RNG(8).standard_normal((3, 3))
        bias = RNG(9).standard_normal(3)
        np.testing.assert_allclose(
            dws_conv(x, depth, weight, bias),
            pointwise_affine(x, weight, bias),
            atol=1e-12,
        )

    def test_matches_naive_loop(self):
        x = rand_features((1, 2, 4, 4), 10)
        depth = RNG(11).standard_normal((2, 3, 3))
        weight = RNG(12).standard_normal((2, 2))
        bias = RNG(13).standard_normal(2)
        expected = loop_strip_conv(x, depth)
        expected = np.einsum("fchw,oc->fohw", expected, weight) + bias[:, None, None]
        np.testing.assert_allclose(dws_conv(x, depth, weight, bias), expected, atol=1e-5)

    def test_channel_mismatch_names_tensor(self):
        with pytest.raises(ValueError, match="depthwise kernel"):
            dws_conv(rand_features((1, 3, 4, 4), 1), np.ones((2, 3, 3)), np.eye(3))


class TestInterleave:
    def test_definitional_order(self):
        vis = np.arange(8, dtype=float).reshape(1, 1, 2, 4)
        ir = 100 + np.arange(8, dtype=float).reshape(1, 1, 2, 4)
        out = interleave_rows(vis, ir)
        np.testing.assert_array_equal(out[0, 0, 0], vis[0, 0, 0])
        np.testing.assert_array_equal(out[0, 0, 1], ir[0, 0, 0])
        np.testing.assert_array_equal(out[0, 0, 2], vis[0, 0, 1])
        np.testing.assert_array_equal(out[0, 0, 3], ir[0, 0, 1])

    def test_roundtrip_bit_exact(self):
        vis = rand_features((3, 4, 5, 6), 14)
        ir = rand_features((3, 4, 5, 6), 15)
        back_vis, back_ir = deinterleave_rows(interleave_rows(vis, ir))
        np.testing.assert_array_equal(back_vis, vis)
        np.testing.assert_array_equal(back_ir, ir)

    def test_single_row(self):
        vis = np.ones((1, 1, 1, 3))
        ir = 2 * np.ones((1, 1, 1, 3))
        out = interleave_rows(vis, ir)
        assert out.shape == (1, 1, 2, 3)
        np.testing.assert_array_equal(out[0, 0], [[1, 1, 1], [2, 2, 2]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            interleave_rows(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 2)))


class TestCascadeStripMix:
    def test_single_group_is_row_then_column(self):
        x = rand_features((1, 4, 6, 6), 16)
        row = RNG(17).standard_normal((1, 1, 5))
        col = RNG(18).standard_normal((1, 5, 1))
        expected = strip_conv(strip_conv(x, row[0]), col[0])
        np.testing.assert_array_equal(cascade_strip_mix(x, row, col), expected)

    def test_zero_kernels_give_zeros(self):
        x = rand_features((1, 4, 6, 6), 19)
        out = cascade_strip_mix(x, np.zeros((2, 1, 5)), np.zeros((2, 5, 1)))
        np.testing.assert_array_equal(out, np.zeros_like(x))

    def test_two_group_cascade_matches_hand_wiring(self):
        x = rand_features((2, 4, 6, 5), 20)
        rows = RNG(21).standard_normal((2, 1, 5))
        cols = RNG(22).standard_normal((2, 5, 1))
        g0 = shift_depthwise(shift_depthwise(x[:, :2], rows[0]), cols[0])
        g1_in = x[:, 2:] + g0
        g1 = shift_depthwise(shift_depthwise(g1_in, rows[1]), cols[1])
        expected = np.concatenate([g0, g1], axis=1)
        np.testing.assert_allclose(cascade_strip_mix(x, rows, cols), expected, atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 4, 0, 4), (1, 4, 4, 0), (1, 4, 0, 0)])
    def test_empty_map_gives_empty_output(self, shape):
        out = cascade_strip_mix(np.ones(shape), np.ones((2, 1, 5)), np.ones((2, 5, 1)))
        assert out.shape == shape

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            cascade_strip_mix(rand_features((1, 5, 4, 4), 1), np.zeros((2, 1, 3)), np.zeros((2, 3, 1)))


class TestGatedStripMix:
    def _weights(self, c, seed=23, kernels=((5, 7), (7, 5))):
        rng = RNG(seed)
        return dict(
            height_kernel=rng.standard_normal(kernels[0]),
            width_kernel=rng.standard_normal(kernels[1]),
            gate_w1=rng.standard_normal((c, c)),
            gate_b1=rng.standard_normal(c),
            gate_w2=rng.standard_normal((c, c)),
            gate_b2=rng.standard_normal(c),
            gate_proj_w=rng.standard_normal(3),
            gate_proj_b=rng.standard_normal(3),
        )

    def test_equal_logits_average_three_paths(self):
        x = rand_features((1, 3, 8, 8), 24)
        w = self._weights(3)
        w["gate_proj_w"] = np.zeros(3)
        w["gate_proj_b"] = np.full(3, 0.7)
        r = strip_conv(x, w["height_kernel"])
        c = strip_conv(x, w["width_kernel"])
        out = gated_strip_mix(x, **w)
        np.testing.assert_allclose(out, (r + c + x) / 3.0, atol=1e-12)

    def test_passthrough_limit(self):
        x = rand_features((1, 3, 8, 8), 25)
        w = self._weights(3)
        w["height_kernel"] = np.zeros((5, 7))
        w["width_kernel"] = np.zeros((7, 5))
        w["gate_proj_w"] = np.zeros(3)
        w["gate_proj_b"] = np.array([-30.0, -30.0, 30.0])
        np.testing.assert_allclose(gated_strip_mix(x, **w), x, atol=1e-9)

    def test_gates_positive_and_sum_to_one(self):
        x = rand_features((2, 4, 8, 8), 26)
        w = self._weights(4)
        r = strip_conv(x, w["height_kernel"])
        c = strip_conv(x, w["width_kernel"])
        hidden = gelu(pointwise_affine(r + c, w["gate_w1"], w["gate_b1"]))
        pooled = pointwise_affine(hidden, w["gate_w2"], w["gate_b2"]).mean(axis=(2, 3))
        gates = softmax(pooled[:, :, None] * w["gate_proj_w"] + w["gate_proj_b"], axis=-1)
        assert np.all(gates > 0)
        np.testing.assert_allclose(gates.sum(axis=-1), 1.0, atol=1e-6)

    @staticmethod
    def _oracle(x, w):
        r = shift_depthwise(x, w["height_kernel"])
        c = shift_depthwise(x, w["width_kernel"])
        hidden = gelu_ref(
            np.einsum("fchw,oc->fohw", r + c, w["gate_w1"]) + w["gate_b1"][:, None, None]
        )
        pooled = (
            np.einsum("fchw,oc->fohw", hidden, w["gate_w2"]) + w["gate_b2"][:, None, None]
        ).mean(axis=(2, 3))
        logits = pooled[:, :, None] * w["gate_proj_w"] + w["gate_proj_b"]
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        gates = e / e.sum(axis=-1, keepdims=True)
        return (
            gates[:, :, 0][:, :, None, None] * r
            + gates[:, :, 1][:, :, None, None] * c
            + gates[:, :, 2][:, :, None, None] * x
        )

    def test_matches_hand_wiring_oracle(self):
        x = rand_features((2, 3, 6, 6), 27)
        w = self._weights(3, seed=28)
        np.testing.assert_allclose(gated_strip_mix(x, **w), self._oracle(x, w), atol=1e-10)

    @pytest.mark.parametrize(
        "x_shape, kernels",
        [
            ((2, 3, 6, 6), ((1, 5), (7, 3))),  # both tap sums
            ((2, 3, 6, 6), ((5, 5), (3, 3))),  # one FFT kernel, one tap sum
            ((2, 3, 9, 7), ((3, 9), (11, 5))),  # one spectrum, unequal half-sides
            ((2, 3, 7, 8), ((3, 9, 3), (3, 5, 7))),  # per-channel kernels
            ((1, 3, 2, 3), ((11, 11), (5, 9))),  # map smaller than the kernels
        ],
    )
    def test_unequal_kernel_shapes_match_the_oracle(self, x_shape, kernels):
        x = rand_features(x_shape, 29)
        w = self._weights(3, seed=30, kernels=kernels)
        np.testing.assert_allclose(gated_strip_mix(x, **w), self._oracle(x, w), atol=1e-10)


class TestChannelMix:
    def _weights(self, c, seed=29, hidden=None):
        rng = RNG(seed)
        hidden = hidden or c
        return dict(
            conv_weight=rng.standard_normal((c, 1, 3, 3)),
            conv_bias=rng.standard_normal(c),
            grn_gamma=rng.standard_normal(c),
            grn_beta=rng.standard_normal(c),
            mlp_w1=rng.standard_normal((hidden, c)),
            mlp_b1=rng.standard_normal(hidden),
            mlp_w2=rng.standard_normal((c, hidden)),
            mlp_b2=rng.standard_normal(c),
        )

    def test_grn_neutral_parameters_are_identity(self):
        x = rand_features((2, 4, 5, 5), 30)
        out = global_response_norm(x, np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(out, x)

    def test_null_weights_residual_only(self):
        x = rand_features((2, 4, 6, 6), 31)
        w = {k: np.zeros_like(v) for k, v in self._weights(4).items()}
        np.testing.assert_array_equal(channel_mix(x, **w), x)

    def test_matches_composition_oracle(self):
        x = rand_features((2, 4, 6, 6), 32)
        w = self._weights(4, seed=33)
        y = loop_conv2d(x, w["conv_weight"], w["conv_bias"], groups=4)
        norms = np.sqrt((y * y).sum(axis=(2, 3), keepdims=True))
        y = (
            w["grn_gamma"][:, None, None] * (y * norms / (norms.mean(axis=1, keepdims=True) + 1e-6))
            + w["grn_beta"][:, None, None]
            + y
        )
        h = gelu_ref(np.einsum("fchw,oc->fohw", y, w["mlp_w1"]) + w["mlp_b1"][:, None, None])
        y = np.einsum("fchw,oc->fohw", h, w["mlp_w2"]) + w["mlp_b2"][:, None, None]
        np.testing.assert_allclose(channel_mix(x, **w), x + y, atol=1e-5)

    def test_indivisible_groups_rejected(self):
        x = rand_features((1, 4, 4, 4), 34)
        w = self._weights(4)
        w["conv_weight"] = RNG(34).standard_normal((4, 3, 3, 3))  # fan-in 3 on 4 channels
        with pytest.raises(ValueError, match="groups"):
            channel_mix(x, **w)

    def test_conv_weight_of_another_rank_gets_the_rank_error(self):
        w = self._weights(4)
        w["conv_weight"] = np.ones((4, 3, 3))
        with pytest.raises(ValueError, match="expected rank 4"):
            channel_mix(rand_features((1, 4, 4, 4), 34), **w)

    @pytest.mark.parametrize("size", [(), (1,), (3,), (5,)], ids=["scalar", "1", "3", "5"])
    @pytest.mark.parametrize("name", ["grn_gamma", "grn_beta"])
    def test_grn_parameter_of_another_length_rejected(self, name, size):
        x = rand_features((1, 4, 4, 4), 35)
        args = {"grn_gamma": np.ones(4), "grn_beta": np.ones(4)}
        args[name] = np.ones(size)
        shown = re.escape(str(size))
        with pytest.raises(ValueError, match=rf"{name}: expected \(4,\), got {shown}"):
            global_response_norm(x, args["grn_gamma"], args["grn_beta"])


class TestGroupedConv:
    def test_full_conv_matches_naive_loop(self):
        x = rand_features((2, 3, 5, 5), 35)
        weight = RNG(36).standard_normal((4, 3, 3, 3))
        bias = RNG(37).standard_normal(4)
        np.testing.assert_allclose(
            conv2d_same(x, weight, bias), loop_conv2d(x, weight, bias), atol=1e-10
        )

    def test_grouped_conv_matches_naive_loop(self):
        x = rand_features((2, 4, 5, 5), 38)
        weight = RNG(39).standard_normal((4, 2, 3, 3))
        np.testing.assert_allclose(
            conv2d_same(x, weight, groups=2), loop_conv2d(x, weight, groups=2), atol=1e-10
        )

    def test_bad_group_count_rejected(self):
        with pytest.raises(ValueError, match="groups"):
            conv2d_same(rand_features((1, 4, 4, 4), 1), np.zeros((4, 2, 3, 3)), groups=3)

    @pytest.mark.parametrize(
        "x_shape, w_shape, groups",
        [
            ((2, 4, 6, 6), (4, 1, 5, 5), 4),  # depthwise shortcut
            ((2, 3, 5, 5), (6, 1, 3, 3), 3),  # depthwise multiplier: no shortcut
            ((2, 8, 5, 6), (12, 2, 3, 3), 4),  # four groups, fan-in 2
            ((2, 3, 6, 7), (4, 3, 1, 5), 1),
            ((2, 3, 6, 7), (4, 3, 5, 1), 1),
            ((1, 4, 5, 5), (2, 4, 3, 3), 1),  # single frame
        ],
    )
    def test_dispatch_matches_naive_loop(self, x_shape, w_shape, groups):
        x = rand_features(x_shape, 60)
        weight = RNG(61).standard_normal(w_shape)
        bias = RNG(62).standard_normal(w_shape[0])
        np.testing.assert_allclose(
            conv2d_same(x, weight, bias, groups=groups),
            loop_conv2d(x, weight, bias, groups=groups),
            atol=1e-10,
        )

    def test_bias_shape_checked(self):
        with pytest.raises(ValueError, match="conv bias"):
            conv2d_same(rand_features((1, 4, 4, 4), 1), np.zeros((4, 4, 3, 3)), np.zeros(3))


def _patches(x, s):
    # (F, C, H, W) cut into (F, P, C, S) patches, row-major, S = s * s.
    f, c, h, w = x.shape
    tiles = x.reshape(f, c, h // s, s, w // s, s).transpose(0, 2, 4, 1, 3, 5)
    return tiles.reshape(f, (h // s) * (w // s), c, s * s)


def _unpatch(z, s, h, w):
    # The inverse of _patches.
    f, _, c, _ = z.shape
    tiles = z.reshape(f, h // s, w // s, c, s, s).transpose(0, 3, 1, 4, 2, 5)
    return tiles.reshape(f, c, h, w)


class TestTemporalFuse:
    def test_identity_mixing_on_prenormalized_input(self):
        # With identity mixing weights and neutral layer norm, the fused
        # delta equals the normalized concatenated patches; build an input
        # that is already zero-mean unit-variance along the patch axis so
        # normalization is (nearly) a no-op and verify the residual path.
        f, c, h, w, s = 2, 3, 4, 4, 2
        rng = RNG(42)
        z = rng.standard_normal((f, (h // s) * (w // s), c, 2 * s * s))
        z = (z - z.mean(axis=-1, keepdims=True)) / np.sqrt(
            z.var(axis=-1, keepdims=True) + 1e-5
        )
        vis = _unpatch(z[..., : s * s], s, h, w)
        ir = _unpatch(z[..., s * s :], s, h, w)
        fp = f * (h // s) * (w // s)
        out_vis, out_ir = temporal_fuse(
            vis,
            ir,
            np.ones(2 * s * s),
            np.zeros(2 * s * s),
            np.eye(fp),
            np.zeros(fp),
            s,
        )
        # delta is the layer norm of z, which is ~z because z is pre-normalized
        np.testing.assert_allclose(out_vis, 2 * vis, atol=1e-3)
        np.testing.assert_allclose(out_ir, 2 * ir, atol=1e-3)

    def test_degenerate_single_frame_single_patch(self):
        # F = 1 and P = 1 reduce the mixing map to a 1x1 affine (scalar).
        f, c, s = 1, 2, 2
        vis = rand_features((f, c, s, s), 43)
        ir = rand_features((f, c, s, s), 44)
        weight = np.array([[2.5]])
        bias = np.array([0.25])
        gamma = np.ones(2 * s * s)
        beta = np.zeros(2 * s * s)
        out_vis, out_ir = temporal_fuse(vis, ir, gamma, beta, weight, bias, s)
        z = np.concatenate([_patches(vis, s), _patches(ir, s)], axis=-1)
        mean = z.mean(axis=-1, keepdims=True)
        var = z.var(axis=-1, keepdims=True)
        normed = (z - mean) / np.sqrt(var + 1e-5)
        delta = 2.5 * normed + 0.25
        np.testing.assert_allclose(
            out_vis, vis + _unpatch(delta[..., : s * s], s, s, s), atol=1e-12
        )
        np.testing.assert_allclose(
            out_ir, ir + _unpatch(delta[..., s * s :], s, s, s), atol=1e-12
        )

    def test_bad_patch_size_rejected(self):
        with pytest.raises(ValueError, match="patch size"):
            temporal_fuse(
                np.zeros((1, 1, 5, 5)),
                np.zeros((1, 1, 5, 5)),
                np.ones(8),
                np.zeros(8),
                np.eye(1),
                np.zeros(1),
                2,
            )
        # 4.4 used to run as 4, and inf to raise OverflowError.
        x = np.zeros((1, 1, 4, 4))
        for size in (4.4, np.inf, np.nan):
            with pytest.raises(ValueError, match="patch_size: expected one positive integer"):
                temporal_fuse(x, x, np.ones(32), np.zeros(32), np.eye(1), np.zeros(1), size)

    @pytest.mark.parametrize(
        "name, index",
        [("temporal_ln_gamma", 2), ("temporal_ln_beta", 3), ("mlp2_bias", 5)],
    )
    def test_bad_tensor_length_names_the_tensor(self, name, index):
        # F=2, P=4, S=4: the layer norm takes 2S = 8 values, mlp2 F*P = 8.
        vis = rand_features((2, 3, 4, 4), 45)
        args = [vis, vis, np.ones(8), np.zeros(8), np.eye(8), np.zeros(8), 2]
        args[index] = np.zeros(9)
        with pytest.raises(ValueError, match=rf"{name}: expected \(8,\), got \(9,\)"):
            temporal_fuse(*args)


class TestTemporalAdaptiveConv:
    def _calib(self, c, reduce, seed):
        rng = RNG(seed)
        return dict(
            conv1_w=rng.standard_normal((reduce, c, 3)),
            conv1_b=rng.standard_normal(reduce),
            conv2_w=rng.standard_normal((reduce, reduce, 3)),
            conv2_b=rng.standard_normal(reduce),
            fc_w=rng.standard_normal((c, reduce)),
            fc_b=rng.standard_normal(c),
        )

    def test_zeroed_calibration_is_plain_convolution(self):
        x = rand_features((3, 4, 6, 6), 45)
        base_w = RNG(46).standard_normal((4, 4, 3, 3))
        base_b = RNG(47).standard_normal(4)
        calib = {k: np.zeros_like(v) for k, v in self._calib(4, 2, 48).items()}
        out = temporal_adaptive_conv(x, base_w, base_b, **calib)
        np.testing.assert_allclose(out, conv2d_same(x, base_w, base_b), atol=1e-12)
        np.testing.assert_allclose(out, loop_conv2d(x, base_w, base_b), atol=1e-10)

    def test_single_frame(self):
        x = rand_features((1, 4, 5, 5), 49)
        base_w = RNG(50).standard_normal((4, 4, 3, 3))
        base_b = np.zeros(4)
        calib = self._calib(4, 2, 51)
        out = temporal_adaptive_conv(x, base_w, base_b, **calib)
        v = x.mean(axis=(2, 3))
        t = gelu_ref(loop_conv1d_frames(v, calib["conv1_w"], calib["conv1_b"]))
        t = loop_conv1d_frames(t, calib["conv2_w"], calib["conv2_b"])
        alpha = 1.0 + t @ calib["fc_w"].T + calib["fc_b"]
        expected = loop_conv2d(x, base_w * alpha[0][:, None, None, None], base_b)
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_two_frame_scaled_kernel_oracle(self):
        x = rand_features((2, 3, 5, 5), 52)
        base_w = RNG(53).standard_normal((3, 3, 3, 3))
        base_b = RNG(54).standard_normal(3)
        calib = self._calib(3, 2, 55)
        out = temporal_adaptive_conv(x, base_w, base_b, **calib)
        v = x.mean(axis=(2, 3))
        t = gelu_ref(loop_conv1d_frames(v, calib["conv1_w"], calib["conv1_b"]))
        t = loop_conv1d_frames(t, calib["conv2_w"], calib["conv2_b"])
        alpha = 1.0 + t @ calib["fc_w"].T + calib["fc_b"]
        for frame in range(2):
            expected = loop_conv2d(
                x[frame : frame + 1], base_w * alpha[frame][:, None, None, None], base_b
            )
            np.testing.assert_allclose(out[frame : frame + 1], expected, atol=1e-5)

    def test_three_frame_scaled_kernel_oracle(self):
        x = rand_features((3, 4, 5, 6), 56)
        base_w = RNG(57).standard_normal((5, 4, 3, 3))
        base_b = RNG(58).standard_normal(5)
        calib = self._calib(4, 2, 59)
        calib["fc_w"] = RNG(59).standard_normal((5, 2))
        calib["fc_b"] = RNG(60).standard_normal(5)
        out = temporal_adaptive_conv(x, base_w, base_b, **calib)
        v = x.mean(axis=(2, 3))
        t = gelu_ref(loop_conv1d_frames(v, calib["conv1_w"], calib["conv1_b"]))
        t = loop_conv1d_frames(t, calib["conv2_w"], calib["conv2_b"])
        alpha = 1.0 + t @ calib["fc_w"].T + calib["fc_b"]
        assert np.ptp(alpha, axis=0).min() > 0.1  # calibration really varies
        for frame in range(3):
            expected = loop_conv2d(
                x[frame : frame + 1], base_w * alpha[frame][:, None, None, None], base_b
            )
            np.testing.assert_allclose(out[frame : frame + 1], expected, atol=1e-10)

    def test_bias_shape_checked(self):
        x = rand_features((2, 4, 5, 5), 73)
        with pytest.raises(ValueError, match="bias"):
            temporal_adaptive_conv(
                x, np.zeros((4, 4, 3, 3)), np.zeros(3), **self._calib(4, 2, 74)
            )

    def test_base_weight_fan_in_checked(self):
        x = rand_features((2, 4, 5, 5), 75)
        with pytest.raises(ValueError, match="fan-in"):
            temporal_adaptive_conv(
                x, np.zeros((4, 3, 3, 3)), np.zeros(4), **self._calib(4, 2, 76)
            )

    @pytest.mark.parametrize(
        "name, shape",
        [
            ("conv1_w", (2, 4)),  # rank 2
            ("conv1_w", (2, 3, 3)),  # fan-in 3, descriptor has 4 channels
            ("conv1_w", (2, 4, 2)),  # even frame kernel
            ("conv1_b", (3,)),
            ("conv2_w", (2, 3, 3)),  # fan-in 3, conv1 gives 2
            ("conv2_b", (1,)),
            ("fc_w", (4, 3)),
            ("fc_b", (5,)),
        ],
    )
    def test_calibration_shapes_checked(self, name, shape):
        x = rand_features((2, 4, 5, 5), 77)
        calib = self._calib(4, 2, 78)
        calib[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=name):
            temporal_adaptive_conv(x, np.zeros((4, 4, 3, 3)), np.zeros(4), **calib)

    def test_one_convolution_per_clip(self, monkeypatch):
        calls = []

        def counting_conv(*args, **kwargs):
            calls.append(args[0].shape)
            return conv2d_same(*args, **kwargs)

        monkeypatch.setattr(fusion_module, "conv2d_same", counting_conv)
        x = rand_features((3, 4, 5, 5), 77)
        temporal_adaptive_conv(
            x, RNG(78).standard_normal((4, 4, 3, 3)), np.zeros(4), **self._calib(4, 2, 79)
        )
        assert calls == [(3, 4, 5, 5)]

    @pytest.mark.parametrize("spec", TADA_SCHEMA, ids=lambda spec: spec.name)
    def test_non_finite_weight_names_its_tensor(self, spec):
        # One NaN used to come back silently: in tada_conv1_weight it made
        # every output NaN.
        w = FusionWeights.seeded(FusionConfig(frames=2, channels=8, height=8, width=8), seed=5)
        tensors = [w.tensor(s.name).copy() for s in TADA_SCHEMA]
        tensors[TADA_SCHEMA.index(spec)].flat[0] = np.nan
        with pytest.raises(ValueError, match=f"tensor '{spec.name}' has non-finite values"):
            temporal_adaptive_conv(rand_features((2, 8, 8, 8), 80), *tensors)

    @pytest.mark.parametrize("shape", [(0, 4, 5, 5), (2, 0, 5, 5), (2, 4, 0, 5), (2, 4, 5, 0)])
    def test_empty_axis_rejected_naming_the_shape(self, shape):
        # F = 0 used to leak numpy's "window shape cannot be larger than
        # input array shape", and H = 0 a "Mean of empty slice" warning.
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            temporal_adaptive_conv(
                np.ones(shape), np.zeros((4, 4, 3, 3)), np.zeros(4), **self._calib(4, 2, 81)
            )


class TestFusionWeights:
    def test_seeded_is_deterministic(self):
        a = FusionWeights.seeded(seed=7)
        b = FusionWeights.seeded(seed=7)
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_save_load_roundtrip(self, tmp_path):
        w = FusionWeights.seeded(seed=3)
        path = tmp_path / "w.sfwt"
        w.save(path)
        back = FusionWeights.load(path)
        for name in w.tensors:
            np.testing.assert_allclose(back.tensors[name], w.tensors[name], atol=1e-7)

    def test_missing_tensor_named_in_error(self):
        w = FusionWeights.seeded()
        del w.tensors["merge_weight"]
        with pytest.raises(ValueError, match="merge_weight"):
            w.validate(3, 8, 16, 16)

    def test_wrong_shape_named_in_error(self):
        w = FusionWeights.seeded()
        w.tensors["mlp1_weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="mlp1_weight"):
            w.validate(3, 8, 16, 16)

    def test_temporal_shape_depends_on_input(self):
        w = FusionWeights.seeded()
        with pytest.raises(ValueError, match="mlp2_weight"):
            w.validate(2, 8, 16, 16)  # FP differs from the seeded F=3


def _off_by_one_cases():
    # Every schema dim except the free kernel sides, one size too small and
    # one too large. A channel-mix fan-in of 2 is a valid grouped
    # convolution, so that one case is checked on its own below.
    for spec in FORWARD_SCHEMA:
        for axis, dim in enumerate(spec.dims):
            if str(dim).startswith("k_"):
                continue
            for delta in (-1, 1):
                if (spec.name, axis, delta) != ("mix_conv_weight", 1, 1):
                    yield pytest.param(spec.name, axis, delta, id=f"{spec.name}-{axis}{delta:+d}")


SCHEMA_CONFIGS = [
    FusionConfig(),
    FusionConfig(frames=2, channels=4, height=8, width=8, patch_size=2, cascade_groups=2),
    FusionConfig(frames=1, channels=2, height=4, width=6, patch_size=2, cascade_groups=1),
    FusionConfig(frames=4, channels=16, height=9, width=6, patch_size=3, cascade_groups=8),
]


class TestWeightSchema:
    @pytest.mark.parametrize("name, axis, delta", list(_off_by_one_cases()))
    def test_size_off_by_one_names_the_tensor(self, name, axis, delta):
        # gate_b1, mix_mlp_b1 and the cascade column stack went unchecked.
        w = FusionWeights.seeded(seed=11)
        shape = list(w.tensors[name].shape)
        shape[axis] += delta
        w.tensors[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=name):
            w.validate(3, 8, 16, 16)

    def test_grouped_mix_conv_is_valid(self):
        w = FusionWeights.seeded(seed=11)
        w.tensors["mix_conv_weight"] = w.tensors["mix_conv_weight"][:, [0, 0]] / 2
        w.validate(3, 8, 16, 16)
        assert w.mix_groups() == 4
        vis = rand_features((3, 8, 16, 16), 90)
        out = fusion_forward(vis, vis, w)
        ref = reference_forward(vis, vis, w.tensors, 4)
        assert max(np.max(np.abs(o - r)) for o, r in zip(out, ref)) <= 1e-5

    @pytest.mark.parametrize("cfg", SCHEMA_CONFIGS, ids=str)
    def test_seeded_weights_validate_and_run(self, cfg):
        w = FusionWeights.seeded(cfg, seed=4)
        shape = (cfg.frames, cfg.channels, cfg.height, cfg.width)
        w.validate(*shape)
        vis, ir = rand_features(shape, 91), rand_features(shape, 92)
        out_vis, out_ir = fusion_forward(vis, ir, w)
        assert out_vis.shape == out_ir.shape == shape
        # TADA_SCHEMA lists the standalone block's tensors in argument order.
        tada = temporal_adaptive_conv(vis, *(w.tensor(spec.name) for spec in TADA_SCHEMA))
        assert tada.shape == shape
        assert list(w.tensors) == [
            spec.name for spec in FORWARD_SCHEMA + TADA_SCHEMA
        ] + ["patch_size"]

    def test_kernel_sides_are_free_per_tensor(self):
        # vis and ir depthwise kernels of different, non-square sides.
        w = FusionWeights.seeded(seed=12)
        w.tensors["dws_depth_ir"] = RNG(93).standard_normal((8, 5, 3)) * 0.1
        w.tensors["mix_conv_weight"] = RNG(94).standard_normal((8, 1, 7, 9)) * 0.1
        w.validate(3, 8, 16, 16)
        vis = rand_features((3, 8, 16, 16), 95)
        out = fusion_forward(vis, vis, w)
        ref = reference_forward(vis, vis, w.tensors, 8)
        assert max(np.max(np.abs(o - r)) for o, r in zip(out, ref)) <= 1e-5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_forward_rejects_non_finite_weights_naming_the_tensor(self, bad):
        # One NaN in mlp1_weight used to turn every output value non-finite.
        w = FusionWeights.seeded(seed=4)
        w.tensors["mlp1_weight"][1, 2] = bad
        vis = rand_features((3, 8, 16, 16), 96)
        with pytest.raises(ValueError, match="tensor 'mlp1_weight' has non-finite values"):
            fusion_forward(vis, vis, w)

    @pytest.mark.parametrize("value", [np.inf, np.nan, np.array([4.0, 4.0]), 4.4, 3.6])
    def test_patch_size_must_be_one_finite_value(self, value):
        # inf raised OverflowError and a two-element tensor TypeError; 4.4
        # and 3.6 ran silently as 4.
        w = FusionWeights.seeded()
        w.tensors["patch_size"] = np.asarray(value, dtype=np.float64)
        with pytest.raises(ValueError, match="patch_size"):
            w.validate(3, 8, 16, 16)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"channels": 7}, "even"),
            ({"patch_size": 3}, "patch_size"),
            ({"patch_size": 0}, "patch_size"),  # was ZeroDivisionError
            ({"cascade_groups": 3}, "cascade_groups"),
            ({"cascade_groups": 0}, "cascade_groups"),  # was ZeroDivisionError
            ({"cascade_groups": -2}, "cascade_groups"),
        ],
    )
    def test_config_rejects_inconsistent_shapes(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FusionConfig(**kwargs)

    @pytest.mark.parametrize("value", [0, -4])
    @pytest.mark.parametrize("field", ["frames", "channels", "height", "width"])
    def test_config_rejects_sizes_below_one(self, field, value):
        # channels=0 used to seed a weights file with empty tensors, and a
        # negative size failed in numpy naming no field.
        with pytest.raises(ValueError, match=rf"^{field} must be >= 1, got {value}$"):
            FusionConfig(**{field: value})

    def test_config_has_only_the_caller_set_fields(self):
        assert list(FusionConfig.__dataclass_fields__) == [
            "frames", "channels", "height", "width", "patch_size", "cascade_groups"
        ]


class TestFusionForward:
    def test_shape_contract(self):
        w = FusionWeights.seeded(seed=0)
        vis = rand_features((3, 8, 16, 16), 60)
        ir = rand_features((3, 8, 16, 16), 61)
        out_vis, out_ir = fusion_forward(vis, ir, w)
        assert out_vis.shape == vis.shape and out_ir.shape == ir.shape
        assert np.isfinite(out_vis).all() and np.isfinite(out_ir).all()

    def test_null_fusion_path_keeps_first_taps(self):
        # Zero every weight after the first residual tap (and make GRN and
        # the temporal stage neutral): the pre-temporal features must equal
        # the tap values, so the block output is tap + temporal delta of it.
        cfg = FusionConfig(frames=2, channels=4, height=8, width=8, patch_size=2, cascade_groups=2)
        w = FusionWeights.seeded(cfg, seed=1)
        for name in (
            "cascade_row_kernels",
            "cascade_col_kernels",
            "local_height_kernel",
            "local_width_kernel",
            "gate_proj_weight",
            "gate_proj_bias",
            "merge_weight",
            "merge_bias",
            "mix_conv_weight",
            "mix_conv_bias",
            "grn_gamma",
            "grn_beta",
            "mix_mlp_w1",
            "mix_mlp_b1",
            "mix_mlp_w2",
            "mix_mlp_b2",
            "mlp2_weight",
            "mlp2_bias",
        ):
            w.tensors[name] = np.zeros_like(w.tensors[name])
        vis = rand_features((2, 4, 8, 8), 62)
        ir = rand_features((2, 4, 8, 8), 63)
        vis1 = pointwise_affine(
            dws_conv(vis, w.tensor("dws_depth_vis"), w.tensor("dws_point_vis"), w.tensor("dws_point_bias_vis")),
            w.tensor("mlp1_weight"),
            w.tensor("mlp1_bias"),
        )
        ir1 = pointwise_affine(
            dws_conv(ir, w.tensor("dws_depth_ir"), w.tensor("dws_point_ir"), w.tensor("dws_point_bias_ir")),
            w.tensor("mlp1_weight"),
            w.tensor("mlp1_bias"),
        )
        out_vis, out_ir = fusion_forward(vis, ir, w)
        # zero mixing weight in the temporal stage leaves only the residual
        np.testing.assert_allclose(out_vis, vis1, atol=1e-12)
        np.testing.assert_allclose(out_ir, ir1, atol=1e-12)

    def test_deterministic_across_runs(self):
        w = FusionWeights.seeded(seed=2)
        vis = rand_features((3, 8, 16, 16), 64)
        ir = rand_features((3, 8, 16, 16), 65)
        a = fusion_forward(vis, ir, w)
        b = fusion_forward(vis.copy(), ir.copy(), w)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_matches_straight_line_reference(self):
        w = FusionWeights.seeded(seed=5)
        vis = rand_features((3, 8, 16, 16), 66)
        ir = rand_features((3, 8, 16, 16), 67)
        out_vis, out_ir = fusion_forward(vis, ir, w)
        ref_vis, ref_ir = reference_forward(vis, ir, w.tensors, w.mix_groups())
        assert np.max(np.abs(out_vis - ref_vis)) <= 1e-5
        assert np.max(np.abs(out_ir - ref_ir)) <= 1e-5

    def test_errors_carry_block_name(self):
        w = FusionWeights.seeded()
        vis = rand_features((3, 8, 16, 16), 68)
        w.tensors["gate_proj_weight"] = np.zeros(4)  # invalid length
        with pytest.raises(ValueError, match="gate_proj_weight"):
            fusion_forward(vis, vis, w)
        w = FusionWeights.seeded()
        w.tensors["cascade_row_kernels"] = np.zeros((4, 1, 4))  # even side
        with pytest.raises(ValueError, match="cascade mix: .*odd"):
            fusion_forward(vis, vis, w)

    def test_working_set_stays_within_six_inputs(self):
        # Every intermediate is dropped at its last use, and the FFT, GELU
        # and layer-norm temporaries are one block long, so the forward's
        # own allocations peak below 6x its two input maps (10.3x when each
        # intermediate lived until the return).
        w = FusionWeights.seeded(FusionConfig(frames=3, channels=16, height=32, width=32), 6)
        vis, ir = rand_features((2, 3, 16, 32, 32), 69)
        before = vis.tobytes(), ir.tobytes()
        fusion_forward(vis, ir, w)  # imports scipy outside the traced call
        tracemalloc.start()
        try:
            fusion_forward(vis, ir, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * (vis.nbytes + ir.nbytes)
        assert (vis.tobytes(), ir.tobytes()) == before


class TestActivations:
    def test_gelu_matches_reference(self):
        x = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(gelu(x), gelu_ref(x), atol=1e-12)

    def test_gelu_is_exactly_scipy_erf(self):
        x = np.concatenate([np.linspace(-8, 8, 1001), [0.0, -0.0, 1e-300, -1e-300, 40.0]])
        assert gelu(x).tobytes() == _one_shot_gelu(x).tobytes()

    def test_package_import_leaves_scipy_unloaded(self):
        # scipy.special (gelu's erf) is most of the import time, and
        # scipy.fft only serves large depthwise kernels: both load on use.
        src = Path(fusion_module.__file__).resolve().parents[1]
        code = "import sys, msfusion, msfusion.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_softmax_rows(self):
        x = RNG(70).standard_normal((5, 7))
        out = softmax(x, axis=-1)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out > 0)


def _layer_norm(x, gamma, beta):
    # The temporal mixer's layer norm over the last axis, into a new buffer.
    return fusion_module._layer_norm_into(x, np.empty(x.shape), gamma, beta)


class TestEpilogues:
    # The blocks write their results into buffers of their own, in the
    # order of the textbook formulas: the bytes match those formulas, and
    # read-only inputs are accepted and left unchanged.
    def test_layer_norm_is_the_textbook_formula(self):
        z = 3.0 * rand_features((3, 5, 7, 32), 71) + 1.0
        gamma, beta = RNG(72).standard_normal((2, 32))
        mean = z.mean(axis=-1, keepdims=True)
        var = z.var(axis=-1, keepdims=True)
        expected = (z - mean) / np.sqrt(var + 1e-5) * gamma + beta
        assert _layer_norm(z, gamma, beta).tobytes() == expected.tobytes()

    def test_global_response_norm_is_the_textbook_formula(self):
        x = rand_features((3, 6, 5, 7), 73)
        gamma, beta = RNG(74).standard_normal((2, 6))
        norms = np.sqrt((x * x).sum(axis=(2, 3), keepdims=True))
        scaled = norms / (norms.mean(axis=1, keepdims=True) + 1e-6)
        expected = gamma[:, None, None] * (x * scaled) + beta[:, None, None] + x
        assert global_response_norm(x, gamma, beta).tobytes() == expected.tobytes()

    @staticmethod
    def _read_only_calls():
        rng = RNG(75)
        x, y = rng.standard_normal((2, 2, 4, 8, 8))
        cfg = FusionConfig(frames=2, channels=4, height=8, width=8, cascade_groups=2)
        weights = FusionWeights.seeded(cfg, 76)
        t = weights.tensor
        tada = [t(spec.name) for spec in TADA_SCHEMA]
        mix = [t(n) for n in ("mix_conv_weight", "mix_conv_bias", "grn_gamma", "grn_beta")]
        mix += [t(n) for n in ("mix_mlp_w1", "mix_mlp_b1", "mix_mlp_w2", "mix_mlp_b2")]
        gate = TestGatedStripMix()._weights(4, seed=77)
        temporal = [t(n) for n in ("temporal_ln_gamma", "temporal_ln_beta")]
        temporal += [t("mlp2_weight"), t("mlp2_bias")]
        return {
            "layer_norm": (_layer_norm, *rng.standard_normal((3, 3, 5, 8))),
            "gelu": (gelu, x),
            "global_response_norm": (global_response_norm, x, t("grn_gamma"), t("grn_beta")),
            "gated_strip_mix": (gated_strip_mix, x, *gate.values()),
            "channel_mix": (channel_mix, x, *mix),
            "temporal_fuse": (temporal_fuse, x, y, *temporal, 4),
            "conv2d_same": (conv2d_same, x, t("tada_base_weight"), t("tada_base_bias")),
            "conv2d_same_depthwise": (conv2d_same, x, t("mix_conv_weight"), None, 4),
            "temporal_adaptive_conv": (temporal_adaptive_conv, x, *tada),
            "fusion_forward": (fusion_forward, x, y, weights),
        }

    @pytest.mark.parametrize(
        "block",
        [
            "layer_norm",
            "gelu",
            "global_response_norm",
            "gated_strip_mix",
            "channel_mix",
            "temporal_fuse",
            "conv2d_same",
            "conv2d_same_depthwise",
            "temporal_adaptive_conv",
            "fusion_forward",
        ],
    )
    def test_read_only_inputs_are_left_unchanged(self, block):
        fn, *args = self._read_only_calls()[block]
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        if isinstance(args[-1], FusionWeights):
            arrays += list(args[-1].tensors.values())
        before = [a.tobytes() for a in arrays]
        expected = fn(*args)
        assert [a.tobytes() for a in arrays] == before
        for a in arrays:
            a.setflags(write=False)
        got = fn(*args)
        assert [a.tobytes() for a in arrays] == before
        assert np.array(got).tobytes() == np.array(expected).tobytes()
