"""Bounding-box algebra walkthrough: IoU, CIoU, hulls, and greedy NMS.

Run from the repository root:

    python3 demos/01_box_geometry.py
"""

import numpy as np

from msfusion import BBox, Detection, ciou, convex_hull, iou, nms

# Two overlapping 10x10 boxes. The intersection is 8x8 = 64 and the union
# is 100 + 100 - 64 = 136.
a = BBox(0, 0, 10, 10)
b = BBox(2, 2, 12, 12)
print("IoU(a, b)          =", iou(a, b), "(expected 64/136 =", 64 / 136, ")")
print("hull(a, b)         =", convex_hull(a, b))

# CIoU penalizes IoU by the normalized center distance and an aspect-ratio
# term. Two side-by-side unit-aspect squares share an edge: IoU 0, squared
# center distance 4, squared hull diagonal 20, so CIoU = -4/20 = -0.2.
print("CIoU(side-by-side) =", ciou(BBox(0, 0, 2, 2), BBox(2, 0, 4, 2)))

# The aspect-ratio term activates when shapes disagree.
wide, tall = BBox(0, 0, 4, 2), BBox(0, 0, 2, 4)
print("CIoU(wide, tall)   =", ciou(wide, tall), "<= IoU =", iou(wide, tall))

# Boxes are stored in corner form; the center form is a derived view.
x_c, y_c, w, h = a.to_center()
corners = (x_c - w / 2, y_c - h / 2, x_c + w / 2, y_c + h / 2)
print("center form        =", (x_c, y_c, w, h), "->", BBox(*corners))

# Greedy NMS keeps the best-scoring box of each overlapping cluster. Ties
# are broken by input order, and survivors come out sorted by score.
rng = np.random.default_rng(0)
dets = []
for i in range(12):
    x0, y0 = rng.uniform(0, 30, 2)
    side = rng.uniform(6, 14)
    dets.append(
        Detection(
            BBox(x0, y0, x0 + side, y0 + side),
            round(float(rng.uniform(0.2, 1.0)), 2),
            "vis",
            "s80",
            "demo",
        )
    )
kept = nms(dets, iou_threshold=0.45)
print(f"\nNMS kept {len(kept)} of {len(dets)} boxes at threshold 0.45:")
for d in kept:
    print(f"  score {d.score:.2f}  box ({d.box.x_min:.1f}, {d.box.y_min:.1f}, "
          f"{d.box.x_max:.1f}, {d.box.y_max:.1f})")

# Rerunning NMS on its own output changes nothing.
assert nms(kept, 0.45) == kept
print("\nNMS is idempotent on its own output.")
