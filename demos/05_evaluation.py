"""Log-average miss-rate evaluation on a synthetic corpus.

The metric sweeps the detection confidence threshold, traces (false
positives per image, miss rate) pairs, samples the miss rate at nine FPPI
points log-spaced in [0.01, 1], and reports the geometric mean as a
percentage. Settings select which pedestrians count: the "reasonable"
setting keeps non/partially occluded people taller than 55 pixels, height
ranges and occlusion tiers slice the rest, and "all" keeps everything.

    python3 demos/05_evaluation.py
"""

import numpy as np

from msfusion import (
    STANDARD_SETTINGS,
    BBox,
    Detection,
    FrameRecord,
    GroundTruthBox,
    evaluate_matrix,
    log_average_miss_rate,
    miss_rate_curve,
)

rng = np.random.default_rng(11)

# Build 40 frames: each has a few pedestrians of varying heights and
# occlusion tiers; the synthetic detector finds tall unoccluded people
# reliably, struggles with heavy occlusion, and emits occasional false
# positives.
records = []
for f in range(40):
    frame = f"{f:06d}"
    gts, dets = [], []
    for _ in range(int(rng.integers(1, 4))):
        height = float(rng.uniform(30, 160))
        x0 = float(rng.uniform(0, 500))
        y0 = float(rng.uniform(0, 100))
        occ = rng.choice(["none", "none", "partial", "heavy"])
        box = BBox(x0, y0, x0 + 0.4 * height, y0 + height)
        gts.append(GroundTruthBox(box, str(occ)))
        found_p = {"none": 0.95, "partial": 0.8, "heavy": 0.4}[str(occ)]
        if height > 50 and rng.uniform() < found_p:
            dets.append(
                Detection(box, round(float(rng.uniform(0.5, 1.0)), 3), "fused", "s80", frame)
            )
    if rng.uniform() < 0.4:  # a stray false positive
        x0 = float(rng.uniform(0, 500))
        dets.append(
            Detection(
                BBox(x0, 200, x0 + 30, 280),
                round(float(rng.uniform(0.3, 0.9)), 3),
                "fused",
                "s80",
                frame,
            )
        )
    records.append(
        FrameRecord(frame, "day" if f % 3 else "night", gts=gts, detections={"algo1": dets})
    )

setting = STANDARD_SETTINGS["reasonable"]
curve = miss_rate_curve(records, setting, "algo1")
print("first points of the (FPPI, miss rate) sweep:")
for fppi, miss in curve[:5]:
    print(f"  fppi {fppi:.3f}  miss {miss:.3f}")

mr = log_average_miss_rate(records, setting, "algo1")
print(f"\nlog-average miss rate (reasonable): {mr:.2f}%")

# The full grid over settings and day/night splits. Each cell holds the MR
# and the number of evaluated ground truths; a cell without any evaluated
# ground truth has MR None (printed n/a).
table = evaluate_matrix(records, ["algo1"])
print("\nsetting      split  MR%     gts")
for (setting_name, split, _), (mr, num_gt) in sorted(table.items()):
    text = "   n/a" if mr is None else f"{mr:6.2f}"
    print(f"{setting_name:<12} {split:<6} {text}  {num_gt}")
