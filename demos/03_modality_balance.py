"""Modality reliability and the KL-divergence alignment loss.

Each modality's reliability is the mean of its top-n CIoU scores against
ground truth. The more reliable modality anchors RoI feature extraction on
both feature maps; relation matrices (row-softmax of pairwise cosines)
capture each modality's feature distribution, and a directed KL divergence
pushes the weaker one toward the stronger one.

    python3 demos/03_modality_balance.py
"""

import numpy as np

from msfusion import (
    BBox,
    Detection,
    boxes_array,
    cosine_matrix,
    kl_rowwise,
    modality_alignment_loss,
    relation_matrix,
    reliability,
    roi_align,
    thermal_reliability_percentage,
    total_loss,
)

rng = np.random.default_rng(3)

# One scene: two pedestrians, noisy boxes from each modality. The thermal
# boxes are drawn tighter around the ground truth than the visible ones.
gts = [BBox(20, 16, 52, 96), BBox(70, 30, 98, 104)]


def noisy_boxes(jitter, modality, count=8):
    out = []
    for _ in range(count):
        gt = gts[int(rng.integers(0, 2))]
        dx, dy, dw, dh = rng.normal(0, jitter, 4)
        out.append(
            Detection(
                BBox(gt.x_min + dx, gt.y_min + dy, gt.x_max + dw, gt.y_max + dh),
                float(rng.uniform(0.3, 1.0)),
                modality,
                "s80",
                "demo",
            )
        )
    return out


vis_dets = noisy_boxes(jitter=6.0, modality="vis")
ir_dets = noisy_boxes(jitter=1.5, modality="ir")

report = reliability(vis_dets, ir_dets, gts, n_top=5)
print(f"visible reliability r_v = {report.r_v:.4f}")
print(f"thermal reliability r_t = {report.r_t:.4f}")
print(f"reference modality      = {report.reference_modality}")

# RoI features come from a 3x3 RoIAlign over each modality's feature map.
vis_map = rng.uniform(0.1, 1.0, (3, 8, 16, 16))
ir_map = rng.uniform(0.1, 1.0, (3, 8, 16, 16))
features = roi_align(vis_map, [BBox(2.5, 2.0, 6.5, 12.0)])
print("\nRoI feature shape:", features.shape, "(= boxes x 9 * frames * channels)")

# Relation matrices are row-stochastic summaries of feature similarity.
# Detection boxes live in image coordinates; dividing their (N, 4) corners
# by the stride (8 for an image 8x the feature-map size) moves them onto
# the feature grid.
on_grid = boxes_array(d.box for d in ir_dets[:5]) / 8.0
rel = relation_matrix(cosine_matrix(roi_align(vis_map, on_grid)))
print("relation matrix row sums:", np.round(rel.sum(axis=1), 12))

# KL between two relation matrices is directional.
other = relation_matrix(cosine_matrix(roi_align(ir_map, on_grid)))
print("KL(rel || other) =", kl_rowwise(rel, other))
print("KL(other || rel) =", kl_rowwise(other, rel))

# The full single-scale pipeline: reliability, reference boxes, RoIAlign on
# both maps, relation matrices, directed KL. Boxes here live in image
# coordinates; stride 8 maps them onto the 16x16 feature grid.
report, l_kl = modality_alignment_loss(
    vis_dets, ir_dets, gts, vis_map, ir_map, n_top=5, stride=8.0
)
print(f"\nalignment loss L_KL = {l_kl:.6f} (reference {report.reference_modality})")

# The total training objective adds the four opaque detector losses.
print("total loss at beta=2:", total_loss(0.31, 0.28, 0.12, 0.15, l_kl, beta=2.0))

# Across a corpus, the thermal reliability percentage counts how often the
# thermal modality wins; instances with no overlap at all are excluded.
stream = []
for _ in range(40):
    if rng.uniform() < 0.2:
        stream.append(None)  # neither modality overlapped ground truth
    else:
        stream.append(reliability(noisy_boxes(6.0, "vis", 4), noisy_boxes(2.0, "ir", 4), gts))
thermal = thermal_reliability_percentage(stream)
print(f"\nthermal reliability percentage: {thermal:.2f}%  (visible: {100 - thermal:.2f}%)")
