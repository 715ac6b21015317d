"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions with plain loops or
shift-and-add numpy, deliberately avoiding the code paths under test.
Only the data types (boxes, detections, ground truths) are shared with the
package.
"""

from __future__ import annotations

import math

import numpy as np

from msfusion.evaluation import GroundTruthBox
from msfusion.geometry import BBox, Detection


# ---------------------------------------------------------------------------
# geometry


def iou_ref(a: BBox, b: BBox) -> float:
    ix = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def ciou_ref(pred: BBox, gt: BBox) -> float:
    # Step-by-step evaluation of the formula.
    overlap = iou_ref(pred, gt)
    cx_p = (pred.x_min + pred.x_max) / 2.0
    cy_p = (pred.y_min + pred.y_max) / 2.0
    cx_g = (gt.x_min + gt.x_max) / 2.0
    cy_g = (gt.y_min + gt.y_max) / 2.0
    rho2 = (cx_p - cx_g) ** 2 + (cy_p - cy_g) ** 2
    hull_w = max(pred.x_max, gt.x_max) - min(pred.x_min, gt.x_min)
    hull_h = max(pred.y_max, gt.y_max) - min(pred.y_min, gt.y_min)
    c2 = hull_w**2 + hull_h**2
    w_p, h_p = pred.x_max - pred.x_min, pred.y_max - pred.y_min
    w_g, h_g = gt.x_max - gt.x_min, gt.y_max - gt.y_min
    v = (4.0 / math.pi**2) * (math.atan(w_g / h_g) - math.atan(w_p / h_p)) ** 2
    alpha = v / ((1.0 - overlap) + v) if v > 0.0 else 0.0
    return overlap - rho2 / c2 - alpha * v


def nms_ref(dets, iou_threshold):
    """Matrix-based greedy suppression over stable score order."""
    n = len(dets)
    order = sorted(range(n), key=lambda i: (-dets[i].score, i))
    overlap = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            overlap[i, j] = iou_ref(dets[i].box, dets[j].box)
    suppressed = np.zeros(n, dtype=bool)
    kept = []
    for rank, i in enumerate(order):
        if suppressed[i]:
            continue
        kept.append(dets[i])
        for j in order[rank + 1 :]:
            if overlap[i, j] > iou_threshold:
                suppressed[j] = True
    return kept


def _iou_row_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # iou_ref of corner row ``a`` with every row of ``b``, in its order of
    # operations, so each entry equals iou_ref bit for bit.
    ix = np.maximum(0.0, np.minimum(a[2], b[:, 2]) - np.maximum(a[0], b[:, 0]))
    iy = np.maximum(0.0, np.minimum(a[3], b[:, 3]) - np.maximum(a[1], b[:, 1]))
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]) - inter
    positive = union > 0.0
    return np.where(positive, inter / np.where(positive, union, 1.0), 0.0)


def walk_nms_ref(corners, scores, segments, iou_threshold) -> np.ndarray:
    """Row indices greedy NMS keeps, segment by segment (codes ascending),
    each segment in stable descending score order: one IoU row per kept
    box against the live rows after it, suppressing strictly above the
    threshold. Fast enough for frames of thousands of boxes."""
    kept = []
    for code in np.unique(segments).tolist():
        rows = np.flatnonzero(segments == code)
        alive = rows[np.argsort(-scores[rows], kind="stable")]
        while alive.size:
            first, rest = alive[0], alive[1:]
            kept.append(first)
            alive = rest[~(_iou_row_ref(corners[first], corners[rest]) > iou_threshold)]
    return np.array(kept, dtype=np.intp)


def check_nms_survivors(all_dets, survivors, iou_threshold) -> bool:
    """Pairwise survivor condition: survivors mutually below threshold and
    every suppressed box overlaps a higher-scoring survivor above it."""
    for i, a in enumerate(survivors):
        for b in survivors[i + 1 :]:
            if iou_ref(a.box, b.box) > iou_threshold:
                return False
    kept_ids = {id(d) for d in survivors}
    for d in all_dets:
        if id(d) in kept_ids:
            continue
        if not any(
            s.score >= d.score and iou_ref(d.box, s.box) > iou_threshold
            for s in survivors
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# convolutions

def loop_strip_conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Sextuple-loop depthwise correlation with zero padding."""
    f, c, h, w = x.shape
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim == 2:
        k = np.broadcast_to(k, (c,) + k.shape)
    kh, kw = k.shape[1:]
    out = np.zeros_like(x, dtype=np.float64)
    for fi in range(f):
        for ci in range(c):
            for yi in range(h):
                for xi in range(w):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            yy = yi + u - kh // 2
                            xx = xi + v - kw // 2
                            if 0 <= yy < h and 0 <= xx < w:
                                acc += x[fi, ci, yy, xx] * k[ci, u, v]
                    out[fi, ci, yi, xi] = acc
    return out


def loop_conv2d(x, weight, bias=None, groups=1):
    """Loop-based grouped correlation with zero padding."""
    f, cin, h, w = x.shape
    cout, fan_in, kh, kw = weight.shape
    out = np.zeros((f, cout, h, w), dtype=np.float64)
    out_per_group = cout // groups
    for fi in range(f):
        for oi in range(cout):
            g = oi // out_per_group
            for yi in range(h):
                for xi in range(w):
                    acc = 0.0
                    for ci in range(fan_in):
                        cc = g * fan_in + ci
                        for u in range(kh):
                            for v in range(kw):
                                yy = yi + u - kh // 2
                                xx = xi + v - kw // 2
                                if 0 <= yy < h and 0 <= xx < w:
                                    acc += x[fi, cc, yy, xx] * weight[oi, ci, u, v]
                    out[fi, oi, yi, xi] = acc
    if bias is not None:
        out += np.asarray(bias)[:, None, None]
    return out


def shift_depthwise(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Shift-and-add depthwise correlation (fast independent path)."""
    f, c, h, w = x.shape
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim == 2:
        k = np.broadcast_to(k, (c,) + k.shape)
    kh, kw = k.shape[1:]
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.zeros((f, c, h, w), dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            out += xp[:, :, u : u + h, v : v + w] * k[:, u, v][None, :, None, None]
    return out


def shift_conv2d(x, weight, bias=None, groups=1):
    """Shift-and-add grouped correlation."""
    f, cin, h, w = x.shape
    cout, fan_in, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.zeros((f, cout, h, w), dtype=np.float64)
    out_per_group = cout // groups
    for oi in range(cout):
        g = oi // out_per_group
        for ci in range(fan_in):
            cc = g * fan_in + ci
            for u in range(kh):
                for v in range(kw):
                    out[:, oi] += xp[:, cc, u : u + h, v : v + w] * weight[oi, ci, u, v]
    if bias is not None:
        out += np.asarray(bias)[:, None, None]
    return out


def loop_conv1d_frames(v, weight, bias):
    f, cin = v.shape
    cout, _, k = weight.shape
    out = np.zeros((f, cout), dtype=np.float64)
    for t in range(f):
        for oi in range(cout):
            acc = 0.0
            for ci in range(cin):
                for u in range(k):
                    tt = t + u - k // 2
                    if 0 <= tt < f:
                        acc += v[tt, ci] * weight[oi, ci, u]
            out[t, oi] = acc + bias[oi]
    return out


def affine_channels(x, weight, bias=None):
    out = np.tensordot(weight, x, axes=([1], [1])).transpose(1, 0, 2, 3)
    if bias is not None:
        out = out + np.asarray(bias)[None, :, None, None]
    return out


def gelu_ref(x: np.ndarray) -> np.ndarray:
    flat = np.asarray(x, dtype=np.float64).ravel()
    out = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in flat])
    return out.reshape(np.asarray(x).shape)


def softmax_ref(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# full fusion forward, composed independently from the pieces above

def reference_forward(vis, ir, tensors, mix_groups):
    """Straight-line recomputation of the whole fusion forward pass."""
    t = tensors
    s = int(round(float(t["patch_size"])))
    f, c, h, w = vis.shape
    half = c // 2

    def dws(x, depth, point, point_b):
        return affine_channels(shift_depthwise(x, depth), point, point_b)

    vis1 = affine_channels(
        dws(vis, t["dws_depth_vis"], t["dws_point_vis"], t["dws_point_bias_vis"]),
        t["mlp1_weight"],
        t["mlp1_bias"],
    )
    ir1 = affine_channels(
        dws(ir, t["dws_depth_ir"], t["dws_point_ir"], t["dws_point_bias_ir"]),
        t["mlp1_weight"],
        t["mlp1_bias"],
    )

    stacked = np.zeros((f, c, 2 * h, w))
    for row in range(h):
        stacked[:, :, 2 * row] = vis1[:, :, row]
        stacked[:, :, 2 * row + 1] = ir1[:, :, row]

    # cascade over channel groups
    first = stacked[:, :half]
    n_groups = t["cascade_row_kernels"].shape[0]
    per = half // n_groups
    pieces = []
    prev = None
    for g in range(n_groups):
        xg = first[:, g * per : (g + 1) * per]
        if prev is not None:
            xg = xg + prev
        yg = shift_depthwise(
            shift_depthwise(xg, t["cascade_row_kernels"][g]), t["cascade_col_kernels"][g]
        )
        pieces.append(yg)
        prev = yg
    long_range = np.concatenate(pieces, axis=1)

    # gated local mix
    second = stacked[:, half:]
    r = shift_depthwise(second, t["local_height_kernel"])
    col = shift_depthwise(second, t["local_width_kernel"])
    hidden = gelu_ref(affine_channels(r + col, t["gate_w1"], t["gate_b1"]))
    mixed = affine_channels(hidden, t["gate_w2"], t["gate_b2"])
    pooled = mixed.mean(axis=(2, 3))
    logits = pooled[:, :, None] * t["gate_proj_weight"] + t["gate_proj_bias"]
    gates = softmax_ref(logits, axis=-1)
    local = (
        gates[:, :, 0][:, :, None, None] * r
        + gates[:, :, 1][:, :, None, None] * col
        + gates[:, :, 2][:, :, None, None] * second
    )

    merged = affine_channels(
        np.concatenate([long_range, local], axis=1), t["merge_weight"], t["merge_bias"]
    )
    vis_mid = merged[:, :, 0::2] + vis1
    ir_mid = merged[:, :, 1::2] + ir1

    def channel_block(x):
        y = shift_conv2d(x, t["mix_conv_weight"], t["mix_conv_bias"], groups=mix_groups)
        norms = np.sqrt((y * y).sum(axis=(2, 3), keepdims=True))
        scaled = norms / (norms.mean(axis=1, keepdims=True) + 1e-6)
        y = t["grn_gamma"][:, None, None] * (y * scaled) + t["grn_beta"][:, None, None] + y
        y = affine_channels(
            gelu_ref(affine_channels(y, t["mix_mlp_w1"], t["mix_mlp_b1"])),
            t["mix_mlp_w2"],
            t["mix_mlp_b2"],
        )
        return x + y

    vis2 = channel_block(vis_mid)
    ir2 = channel_block(ir_mid)

    # temporal mixing
    def patch(x):
        hp, wp = h // s, w // s
        out = np.zeros((f, hp * wp, c, s * s))
        for fi in range(f):
            for py in range(hp):
                for px in range(wp):
                    tile = x[fi, :, py * s : (py + 1) * s, px * s : (px + 1) * s]
                    out[fi, py * wp + px] = tile.reshape(c, s * s)
        return out

    def unpatch(x):
        hp, wp = h // s, w // s
        out = np.zeros((f, c, h, w))
        for fi in range(f):
            for py in range(hp):
                for px in range(wp):
                    tile = x[fi, py * wp + px].reshape(c, s, s)
                    out[fi, :, py * s : (py + 1) * s, px * s : (px + 1) * s] = tile
        return out

    z = np.concatenate([patch(vis2), patch(ir2)], axis=-1)  # (F, P, C, 2S)
    mean = z.mean(axis=-1, keepdims=True)
    var = z.var(axis=-1, keepdims=True)
    z = (z - mean) / np.sqrt(var + 1e-5) * t["temporal_ln_gamma"] + t["temporal_ln_beta"]
    p = z.shape[1]
    two_s = z.shape[3]
    merged_t = np.zeros((c, two_s, f * p))
    for fi in range(f):
        for pi in range(p):
            merged_t[:, :, fi * p + pi] = z[fi, pi]
    mixed_t = np.einsum("csk,jk->csj", merged_t, t["mlp2_weight"]) + t["mlp2_bias"]
    back = np.zeros((f, p, c, two_s))
    for fi in range(f):
        for pi in range(p):
            back[fi, pi] = mixed_t[:, :, fi * p + pi]
    return vis2 + unpatch(back[..., : s * s]), ir2 + unpatch(back[..., s * s :])


# ---------------------------------------------------------------------------
# RoI and relation matrices

def bilinear_ref(fmap, y, x):
    """Textbook bilinear interpolation on the pixel-center lattice."""
    height, width = fmap.shape[2:]
    if y < -1.0 or y > height or x < -1.0 or x > width:
        return np.zeros(fmap.shape[:2])
    y = min(max(y, 0.0), height - 1.0)
    x = min(max(x, 0.0), width - 1.0)
    y0, x0 = int(math.floor(y)), int(math.floor(x))
    y1, x1 = min(y0 + 1, height - 1), min(x0 + 1, width - 1)
    fy, fx = y - y0, x - x0
    return (
        (1 - fy) * (1 - fx) * fmap[:, :, y0, x0]
        + (1 - fy) * fx * fmap[:, :, y0, x1]
        + fy * (1 - fx) * fmap[:, :, y1, x0]
        + fy * fx * fmap[:, :, y1, x1]
    )


def roi_ref(fmap, box):
    """3x3 RoIAlign of one box: four bilinear_ref samples per bin at the
    quarter points, averaged, flattened as (F, C, 3, 3)."""
    bw = box.width / 3.0
    bh = box.height / 3.0
    grid = np.zeros((fmap.shape[0], fmap.shape[1], 3, 3))
    for by in range(3):
        for bx in range(3):
            acc = np.zeros(fmap.shape[:2])
            for iy in (0.25, 0.75):
                for ix in (0.25, 0.75):
                    acc += bilinear_ref(
                        fmap,
                        box.y_min - 0.5 + (by + iy) * bh,
                        box.x_min - 0.5 + (bx + ix) * bw,
                    )
            grid[:, :, by, bx] = acc / 4.0
    return grid.reshape(-1)


def _bilinear_grid(fmap, ys, xs):
    # Vectorized bilinear interpolation at the outer product of ys and xs;
    # returns (F, C, len(ys), len(xs)).
    height, width = fmap.shape[2:]
    ys = np.clip(np.asarray(ys, dtype=np.float64), 0.0, height - 1.0)
    xs = np.clip(np.asarray(xs, dtype=np.float64), 0.0, width - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, height - 1)
    x1 = np.minimum(x0 + 1, width - 1)
    fy = (ys - y0)[None, None, :, None]
    fx = (xs - x0)[None, None, None, :]
    g = fmap
    return (
        (1 - fy) * (1 - fx) * g[:, :, y0][:, :, :, x0]
        + (1 - fy) * fx * g[:, :, y0][:, :, :, x1]
        + fy * (1 - fx) * g[:, :, y1][:, :, :, x0]
        + fy * fx * g[:, :, y1][:, :, :, x1]
    )


def supersampled_roi(fmap, box, output_size=3, samples=100):
    """Dense quadrature average of bilinear samples over each bin."""
    f, c = fmap.shape[:2]
    bw = (box.x_max - box.x_min) / output_size
    bh = (box.y_max - box.y_min) / output_size
    grid = np.zeros((f, c, output_size, output_size))
    fractions = (np.arange(samples) + 0.5) / samples
    for by in range(output_size):
        ys = box.y_min - 0.5 + (by + fractions) * bh
        for bx in range(output_size):
            xs = box.x_min - 0.5 + (bx + fractions) * bw
            values = _bilinear_grid(fmap, ys, xs)
            grid[:, :, by, bx] = values.mean(axis=(2, 3))
    return grid.reshape(-1)


def relation_ref(cos):
    n = cos.shape[0]
    out = np.zeros_like(cos, dtype=np.float64)
    for i in range(n):
        denom = sum(math.exp(cos[i, k]) for k in range(n))
        for j in range(n):
            out[i, j] = math.exp(cos[i, j]) / denom
    return out


def kl_ref(p, q):
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if p[i, j] > 0.0:
                total += p[i, j] * math.log(p[i, j] / q[i, j])
    return total


def alignment_loss_ref(vis_dets, thermal_dets, gt_boxes, vis_map, thermal_map, n_top, stride):
    """Straight-line recomputation of the alignment loss pipeline."""

    def best_scores(dets):
        return [max(ciou_ref(d.box, g) for g in gt_boxes) for d in dets]

    def top_mean(scores):
        k = min(n_top, len(scores))
        return (sum(sorted(scores, reverse=True)[:k]) / k if k else 0.0), k

    r_v, k_v = top_mean(best_scores(vis_dets))
    r_t, k_t = top_mean(best_scores(thermal_dets))
    thermal_ref = r_t > r_v
    reference = thermal_dets if thermal_ref else vis_dets
    n_used = k_t if thermal_ref else k_v
    scores = best_scores(reference)
    order = sorted(range(len(reference)), key=lambda i: (-scores[i], i))[:n_used]

    def roi(fmap, box):
        scaled = BBox(box.x_min / stride, box.y_min / stride, box.x_max / stride, box.y_max / stride)
        return roi_ref(fmap, scaled)

    def relation(fmap):
        vecs = [roi(fmap, reference[i].box) for i in order]
        n = len(vecs)
        cos = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                cos[i, j] = float(
                    np.dot(vecs[i], vecs[j])
                    / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j]))
                )
        return relation_ref(cos)

    m_v = relation(vis_map)
    m_t = relation(thermal_map)
    loss = kl_ref(m_t, m_v) if thermal_ref else kl_ref(m_v, m_t)
    return r_v, r_t, loss


# ---------------------------------------------------------------------------
# post-processing

def fuse_scale_ref(vis, ir, conf_v, conf_t, iou_thres):
    """All-pairs fusion written directly from the procedure."""
    results = []
    vis_frames: dict = {}
    for i, d in enumerate(vis):
        if d.score >= conf_v:
            vis_frames.setdefault(d.frame_id, []).append((i, d))
    ir_frames: dict = {}
    for j, d in enumerate(ir):
        if d.score >= conf_t:
            ir_frames.setdefault(d.frame_id, []).append((j, d))
    frames = sorted({d.frame_id for d in vis} | {d.frame_id for d in ir})
    for frame in frames:
        vs = vis_frames.get(frame, [])
        ts = ir_frames.get(frame, [])
        if not vs or not ts:
            continue
        for i, dv in vs:
            for j, dt in ts:
                if iou_ref(dv.box, dt.box) >= iou_thres:
                    hull = BBox(
                        min(dv.box.x_min, dt.box.x_min),
                        min(dv.box.y_min, dt.box.y_min),
                        max(dv.box.x_max, dt.box.x_max),
                        max(dv.box.y_max, dt.box.y_max),
                    )
                    results.append((frame, i, j, hull, (dv.score + dt.score) / 2.0))
    return results


def run_strategy_ref(vis, ir, strategy, conf_v, conf_t, iou_thres, nms_thres):
    """Strategy composition using only oracle pieces."""

    def per_frame_nms(dets):
        grouped: dict = {}
        for d in dets:
            grouped.setdefault(d.frame_id, []).append(d)
        out = []
        for frame in sorted(grouped):
            out.extend(nms_ref(grouped[frame], nms_thres))
        return out

    if strategy == "vis":
        return per_frame_nms(list(vis))
    if strategy == "ir":
        return per_frame_nms(list(ir))
    if strategy == "both":
        return per_frame_nms(list(vis) + list(ir))
    pooled = []
    for scale in sorted({d.scale_id for d in vis} | {d.scale_id for d in ir}):
        vs = [d for d in vis if d.scale_id == scale]
        ts = [d for d in ir if d.scale_id == scale]
        for frame, _, _, hull, conf in fuse_scale_ref(vs, ts, conf_v, conf_t, iou_thres):
            pooled.append(
                Detection(box=hull, score=conf, modality="fused", scale_id=scale, frame_id=frame)
            )
    return per_frame_nms(pooled)


# ---------------------------------------------------------------------------
# evaluation

def match_outcomes_ref(dets, evaluated, ignored, match_iou):
    """Greedy matching recomputed from the rules: (score, flag) per
    detection in stable descending score order."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = set()
    outcomes = []
    for i in order:
        candidates = [
            (iou_ref(dets[i].box, g.box), j)
            for j, g in enumerate(evaluated)
            if j not in taken
        ]
        candidates = [(o, j) for o, j in candidates if o >= match_iou]
        if candidates:
            best = max(candidates, key=lambda t: (t[0], -t[1]))
            taken.add(best[1])
            outcomes.append((dets[i].score, "tp"))
        elif any(iou_ref(dets[i].box, g.box) >= match_iou for g in ignored):
            outcomes.append((dets[i].score, "ignored"))
        else:
            outcomes.append((dets[i].score, "fp"))
    return outcomes


def match_frame_ref(dets, evaluated, ignored, match_iou):
    """(tp, fp, misses) of the greedy matching."""
    flags = [flag for _, flag in match_outcomes_ref(dets, evaluated, ignored, match_iou)]
    tp = flags.count("tp")
    return tp, flags.count("fp"), len(evaluated) - tp


def miss_rate_curve_ref(records, setting, source):
    """(FPPI, miss rate) per threshold, recounting every outcome at every
    threshold of the descending sweep."""
    total_gt = 0
    outcomes = []
    for record in records:
        evaluated = [g for g in record.gts if setting.admits(g)]
        ignored = [g for g in record.gts if not setting.admits(g)]
        total_gt += len(evaluated)
        dets = record.detections.get(source, [])
        outcomes += match_outcomes_ref(dets, evaluated, ignored, setting.match_iou)
    points = []
    for threshold in sorted({s for s, _ in outcomes}, reverse=True):
        tp = sum(1 for s, flag in outcomes if s >= threshold and flag == "tp")
        fp = sum(1 for s, flag in outcomes if s >= threshold and flag == "fp")
        points.append((fp / len(records), 1.0 - tp / total_gt))
    return points


def log_average_ref(points, reference_points, floor=1e-10):
    """Log-average miss rate in percent of an (FPPI, miss rate) curve, by
    the dict-and-loop staircase: the lowest miss rate per achieved FPPI,
    and at each reference point the miss rate at the largest FPPI not
    above it (the curve's highest miss rate when none is)."""
    if not points:
        sampled = [1.0] * len(reference_points)
    else:
        best_at: dict[float, float] = {}
        for fppi, miss in points:
            if fppi not in best_at or miss < best_at[fppi]:
                best_at[fppi] = miss
        staircase = sorted(best_at.items())
        highest_miss = max(miss for _, miss in points)
        sampled = []
        for ref in reference_points:
            feasible = [miss for fppi, miss in staircase if fppi <= ref]
            sampled.append(feasible[-1] if feasible else highest_miss)
    if all(m == 0.0 for m in sampled):
        return 0.0
    floored = np.maximum(np.asarray(sampled, dtype=np.float64), floor)
    return float(np.exp(np.mean(np.log(floored))) * 100.0)


# ---------------------------------------------------------------------------
# ingest

_OCCLUSION_REF = {0: "none", 1: "partial", 2: "heavy"}


def parse_annotation_ref(
    text: str,
    source: str = "<string>",
    scale_x: float = 1.0,
    scale_y: float = 1.0,
) -> list[GroundTruthBox]:
    """One bbGt body parsed line by line into ground-truth boxes, with the
    library's error messages; coordinates are multiplied by the scale
    factors."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("% bbGt version"):
        raise ValueError(f"{source}: missing bbGt header")
    gts: list[GroundTruthBox] = []
    for lineno, raw in enumerate(lines[1:], 2):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 6:
            raise ValueError(f"{source}:{lineno}: expected 'label x y w h occ ...'")
        label = tokens[0]
        try:
            x, y, w, h = (float(v) for v in tokens[1:5])
            occ_code = int(tokens[5])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: malformed numeric fields") from None
        if w < 0 or h < 0:
            raise ValueError(f"{source}:{lineno}: negative box size")
        if occ_code not in _OCCLUSION_REF:
            raise ValueError(f"{source}:{lineno}: occlusion code must be 0, 1, or 2")
        try:
            box = BBox(x * scale_x, y * scale_y, (x + w) * scale_x, (y + h) * scale_y)
        except ValueError as err:
            raise ValueError(f"{source}:{lineno}: {err}") from None
        gts.append(
            GroundTruthBox(
                box=box,
                occlusion=_OCCLUSION_REF[occ_code],
                ignore=label != "person",
            )
        )
    return gts
