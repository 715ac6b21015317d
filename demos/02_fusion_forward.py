"""Fusion block forward pass on synthetic visible/thermal feature maps.

The block takes one sequence of features per modality, shaped
(frames, channels, height, width), and returns fused features of the same
shape for each modality. Weights live in a named-tensor bundle that can be
generated deterministically from a seed and stored in a binary container.

    python3 demos/02_fusion_forward.py
"""

import tempfile
from pathlib import Path

import numpy as np

from msfusion import (
    FusionWeights,
    deinterleave_rows,
    fusion_forward,
    interleave_rows,
    temporal_adaptive_conv,
)

rng = np.random.default_rng(42)

# A small scale: 3 frames, 8 channels, 16x16 spatial.
weights = FusionWeights.seeded(frames=3, channels=8, height=16, width=16, patch_size=4, seed=7)
vis = rng.standard_normal((3, 8, 16, 16))
ir = rng.standard_normal((3, 8, 16, 16))

fused_vis, fused_ir = fusion_forward(vis, ir, weights)
print("input shape :", vis.shape)
print("output shape:", fused_vis.shape, fused_ir.shape)
print("outputs finite:", bool(np.isfinite(fused_vis).all() and np.isfinite(fused_ir).all()))

# The same inputs and weights always give bit-identical outputs.
again_vis, again_ir = fusion_forward(vis, ir, weights)
print("bit-identical rerun:", bool(np.array_equal(fused_vis, again_vis)))

# Row interleaving is how the two modalities meet: visible rows take the
# even positions, thermal rows the odd ones, and the split inverts exactly.
stacked = interleave_rows(vis, ir)
back_vis, back_ir = deinterleave_rows(stacked)
print("interleave doubles height:", vis.shape[2], "->", stacked.shape[2])
print("deinterleave is exact:", bool(np.array_equal(back_vis, vis)))

# Weights round-trip through the binary container byte for byte.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "weights.sfwt"
    weights.save(path)
    reloaded = FusionWeights.load(path)
    out_v, _ = fusion_forward(vis, ir, reloaded)
    # float32 storage rounds the weights, so outputs match to float32 accuracy
    print("forward after save/load close:", float(np.max(np.abs(out_v - fused_vis))) < 1e-4)

# The temporally adaptive convolution scales a base kernel per frame using
# factors predicted from the frame descriptors. With the calibration branch
# zeroed the factors are exactly one.
base_w = rng.standard_normal((8, 8, 3, 3)) * 0.1
base_b = np.zeros(8)
reduce = 2
plain = temporal_adaptive_conv(
    vis,
    base_w,
    base_b,
    np.zeros((reduce, 8, 3)),
    np.zeros(reduce),
    np.zeros((reduce, reduce, 3)),
    np.zeros(reduce),
    np.zeros((8, reduce)),
    np.zeros(8),
)
live = temporal_adaptive_conv(
    vis,
    base_w,
    base_b,
    rng.standard_normal((reduce, 8, 3)) * 0.1,
    np.zeros(reduce),
    rng.standard_normal((reduce, reduce, 3)) * 0.1,
    np.zeros(reduce),
    rng.standard_normal((8, reduce)) * 0.1,
    np.zeros(8),
)
print("\ntemporally adaptive conv output:", plain.shape)
print("per-frame calibration changes the result:",
      float(np.max(np.abs(live - plain))) > 0)
