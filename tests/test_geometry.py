"""Box algebra: IoU, CIoU, hulls, their pair kernels, and greedy NMS."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfusion import balance, geometry
from msfusion.geometry import (
    BBox,
    Detection,
    DetectionTable,
    boxes_array,
    check_corners,
    ciou,
    ciou_pairs,
    convex_hull,
    degenerate_rows,
    iou,
    iou_pairs,
    nms,
)
from oracles import check_nms_survivors, ciou_ref, iou_ref, nms_ref


def box(x0, y0, x1, y1):
    return BBox(x0, y0, x1, y1)


@st.composite
def boxes(draw, min_size=0.0, max_coord=100.0):
    x0 = draw(st.floats(0.0, max_coord - min_size, allow_nan=False))
    y0 = draw(st.floats(0.0, max_coord - min_size, allow_nan=False))
    w = draw(st.floats(min_size, max_coord - x0, allow_nan=False))
    h = draw(st.floats(min_size, max_coord - y0, allow_nan=False))
    return BBox(x0, y0, x0 + w, y0 + h)


class TestBBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            BBox(5, 0, 1, 10)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("corner", range(4))
    def test_rejects_non_finite_corners(self, corner, bad):
        corners = [0.0, 0.0, 10.0, 10.0]
        corners[corner] = bad
        with pytest.raises(ValueError, match="invalid box corners"):
            BBox(*corners)

    def test_center_form_roundtrip_within_one_ulp(self):
        # One ulp measured at the box's largest coordinate magnitude.
        rng = np.random.default_rng(7)
        for _ in range(500):
            x0, y0 = rng.uniform(0, 100, 2)
            w, h = rng.uniform(0.1, 50, 2)
            b = BBox(x0, y0, x0 + w, y0 + h)
            x_c, y_c, width, height = b.to_center()
            back = (x_c - width / 2, y_c - height / 2, x_c + width / 2, y_c + height / 2)
            ulp = np.spacing(max(abs(b.x_min), abs(b.y_min), abs(b.x_max), abs(b.y_max)))
            for a, c in zip((b.x_min, b.y_min, b.x_max, b.y_max), back):
                assert abs(a - c) <= ulp

    def test_area_nonnegative(self):
        assert box(3, 3, 3, 3).area == 0.0
        assert box(0, 0, 4, 5).area == 20.0


class TestIoU:
    def test_identical_boxes(self):
        b = box(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(box(0, 0, 2, 2), box(5, 5, 7, 7)) == 0.0

    def test_partial_overlap_value(self):
        # intersection 8x8 = 64, union 100 + 100 - 64 = 136
        assert iou(box(0, 0, 10, 10), box(2, 2, 12, 12)) == pytest.approx(
            64.0 / 136.0, abs=1e-12
        )

    def test_two_degenerate_boxes(self):
        assert iou(box(1, 1, 1, 1), box(1, 1, 1, 1)) == 0.0

    def test_degenerate_inside_positive(self):
        assert iou(box(5, 5, 5, 5), box(0, 0, 10, 10)) == 0.0

    @given(boxes(), boxes())
    @settings(max_examples=200)
    def test_symmetry_and_bounds(self, a, b):
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0

    def test_matches_area_arithmetic_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            vals = rng.uniform(0, 50, 8)
            a = BBox(vals[0], vals[1], vals[0] + vals[2], vals[1] + vals[3])
            b = BBox(vals[4], vals[5], vals[4] + vals[6], vals[5] + vals[7])
            assert iou(a, b) == pytest.approx(iou_ref(a, b), abs=1e-12)


class TestCIoU:
    def test_identical_boxes(self):
        b = box(0, 0, 4, 4)
        assert ciou(b, b) == 1.0

    def test_side_by_side_squares(self):
        # IoU 0, center distance^2 = 4, hull diagonal^2 = 20, equal aspect
        assert ciou(box(0, 0, 2, 2), box(2, 0, 4, 2)) == pytest.approx(-0.2, abs=1e-12)

    def test_aspect_ratio_term_against_oracle(self):
        pred, gt = box(0, 0, 4, 2), box(0, 0, 2, 4)
        assert ciou(pred, gt) == pytest.approx(ciou_ref(pred, gt), abs=1e-12)

    def test_degenerate_box_raises(self):
        with pytest.raises(ValueError, match="degenerate aspect ratio"):
            ciou(box(0, 0, 0, 5), box(0, 0, 2, 2))
        with pytest.raises(ValueError, match="degenerate aspect ratio"):
            ciou(box(0, 0, 2, 2), box(0, 0, 5, 0))

    def test_never_exceeds_iou(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            vals = rng.uniform(0, 50, 8)
            a = BBox(vals[0], vals[1], vals[0] + vals[2] + 0.1, vals[1] + vals[3] + 0.1)
            b = BBox(vals[4], vals[5], vals[4] + vals[6] + 0.1, vals[5] + vals[7] + 0.1)
            assert ciou(a, b) <= iou(a, b) + 1e-12
            assert np.isfinite(ciou(a, b))

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            vals = rng.uniform(0, 50, 8)
            a = BBox(vals[0], vals[1], vals[0] + vals[2] + 0.1, vals[1] + vals[3] + 0.1)
            b = BBox(vals[4], vals[5], vals[4] + vals[6] + 0.1, vals[5] + vals[7] + 0.1)
            assert ciou(a, b) == pytest.approx(ciou_ref(a, b), abs=1e-9)


class TestMatrixKernels:
    def test_boxes_array_layout(self):
        assert boxes_array([]).shape == (0, 4)
        np.testing.assert_array_equal(
            boxes_array([box(1, 2, 3, 4), box(5, 6, 7, 8)]), [[1, 2, 3, 4], [5, 6, 7, 8]]
        )

    @given(st.lists(boxes(), max_size=6), st.lists(boxes(), max_size=6))
    @settings(max_examples=200)
    def test_iou_pairs_on_a_grid_equal_scalar_iou_bitwise(self, a, b):
        # Degenerate and touching boxes included: hypothesis draws zero sizes.
        got = iou_pairs(boxes_array(a)[:, None], boxes_array(b)[None])
        assert got.shape == (len(a), len(b))
        for i, p in enumerate(a):
            for j, q in enumerate(b):
                assert got[i, j] == iou(p, q)

    @given(st.lists(boxes(min_size=0.5), max_size=6), st.lists(boxes(min_size=0.5), max_size=6))
    @settings(max_examples=200)
    def test_ciou_pairs_match_scalar_ciou(self, pred, gt):
        rows = np.repeat(np.arange(len(pred)), len(gt))
        cols = np.tile(np.arange(len(gt)), len(pred))
        _, got = ciou_pairs(boxes_array(pred), boxes_array(gt), rows, cols)
        assert got.shape == (len(pred) * len(gt),)
        for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            assert abs(got[k] - ciou(pred[i], gt[j])) <= 1e-15

    @given(st.lists(boxes(min_size=0.5), max_size=6), st.lists(boxes(min_size=0.5), max_size=6))
    @settings(max_examples=200)
    def test_ciou_pairs_overlap_is_iou_pairs_in_any_pair_order(self, pred, gt):
        p, g = boxes_array(pred), boxes_array(gt)
        rows = np.repeat(np.arange(len(pred)), len(gt))
        cols = np.tile(np.arange(len(gt)), len(pred))
        overlap, score = ciou_pairs(p, g, rows, cols)
        assert overlap.tobytes() == iou_pairs(p[:, None], g[None]).tobytes()
        # Any pair order, repeats included, gives the same entries.
        order = np.random.default_rng(len(rows)).permutation(np.repeat(np.arange(len(rows)), 2))
        _, shuffled = ciou_pairs(p, g, rows[order], cols[order])
        assert shuffled.tobytes() == score[order].tobytes()

    def test_ciou_pairs_chunks_do_not_change_the_result(self, monkeypatch):
        rng = np.random.default_rng(14)
        corners = rng.uniform(0, 50, (40, 2))
        corners = np.hstack([corners, corners + rng.uniform(1, 30, (40, 2))])
        rows, cols = rng.integers(0, 40, 300), rng.integers(0, 40, 300)
        whole = ciou_pairs(corners, corners, rows, cols)
        monkeypatch.setattr(geometry, "_block", lambda item_bytes: 7)
        for got, expected in zip(ciou_pairs(corners, corners, rows, cols), whole):
            assert got.tobytes() == expected.tobytes()

    def test_block_sizes_equal_the_old_chunk_constants(self, monkeypatch):
        # Every chunked kernel sizes its blocks with geometry._block: 8,192
        # CIoU pairs, 2**18 IoU values per NMS walk call and 2**16 gathered
        # RoIAlign corner values, the constants the one budget replaced.
        block, sizes, chunks = geometry._block, [], []

        def recording(item_bytes):
            sizes.append(block(item_bytes))
            return sizes[-1]

        terms = geometry._ciou_terms

        def chunk_terms(p, g):
            chunks.append(p.shape[1])
            return terms(p, g)

        monkeypatch.setattr(geometry, "_block", recording)
        monkeypatch.setattr(balance, "_block", recording)
        monkeypatch.setattr(geometry, "_ciou_terms", chunk_terms)
        corners = np.array([[0.0, 0.0, 2.0, 3.0], [1.0, 1.0, 4.0, 2.0]])
        rows = np.arange(20_000) % 2
        ciou_pairs(corners, corners, rows, rows[::-1])
        assert sizes == [8192] and chunks == [8192, 8192, 3616]
        for live in (1, 750, 4295, 20_000):
            sizes.clear()
            nms(one_frame_table(np.tile([0.0, 0.0, 10.0, 10.0], (live, 1)), np.ones(live)))
            assert sizes[0] == max(1, 2**18 // live)  # the first block sees every row live
        for frames, channels in ((1, 1), (2, 2), (3, 64)):
            sizes.clear()
            balance.roi_align(np.ones((frames, channels, 4, 4)), corners)
            assert sizes == [max(1, 2**16 // (36 * frames * channels))]

    def test_ciou_pairs_leave_degenerate_boxes_to_the_caller(self):
        corners = boxes_array([box(0, 0, 2, 2), box(1, 1, 1, 3), box(0, 0, 0, 0)])
        np.testing.assert_array_equal(degenerate_rows(corners), [False, True, True])
        with np.errstate(all="raise"):
            overlap, _ = ciou_pairs(corners, corners, np.arange(3), np.zeros(3, dtype=int))
        assert overlap.tolist() == [1.0, 0.0, 0.0]

    def test_ciou_pairs_identical_boxes_score_one(self):
        corners = boxes_array([box(0, 0, 4, 4), box(1, 2, 7, 3)])
        _, score = ciou_pairs(corners, corners, np.arange(2), np.arange(2))
        np.testing.assert_array_equal(score, [1.0, 1.0])


class TestConvexHull:
    def test_overlapping_pair(self):
        assert convex_hull(box(0, 0, 10, 10), box(2, 2, 12, 12)) == box(0, 0, 12, 12)

    def test_idempotent_on_equal_boxes(self):
        b = box(1, 2, 3, 4)
        assert convex_hull(b, b) == b

    def test_containment(self):
        assert convex_hull(box(0, 0, 1, 1), box(0, 0, 5, 5)) == box(0, 0, 5, 5)

    @given(boxes(), boxes(), boxes())
    @settings(max_examples=100)
    def test_algebraic_laws(self, a, b, c):
        assert convex_hull(a, b) == convex_hull(b, a)
        assert convex_hull(convex_hull(a, b), c) == convex_hull(a, convex_hull(b, c))
        hull = convex_hull(a, b)
        for box in (a, b):
            assert hull.x_min <= box.x_min and hull.y_min <= box.y_min
            assert hull.x_max >= box.x_max and hull.y_max >= box.y_max
        assert hull.area >= max(a.area, b.area)


def det(x0, y0, x1, y1, score, frame="f0", scale="s80", modality="vis"):
    return Detection(BBox(x0, y0, x1, y1), score, modality, scale, frame)


def one_frame_table(corners, scores):
    zeros = np.zeros(len(scores), dtype=np.intp)
    return DetectionTable(corners, scores, zeros, ("f0",), zeros, zeros)


class TestNMS:
    def test_exact_duplicate_suppressed(self):
        dets = [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        kept = nms(dets, 0.5)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_disjoint_boxes_kept(self):
        dets = [det(0, 0, 2, 2, 0.4), det(5, 5, 7, 7, 0.6)]
        kept = nms(dets, 0.5)
        assert len(kept) == 2
        assert [d.score for d in kept] == [0.6, 0.4]

    def test_empty_input(self):
        assert nms([], 0.5) == []

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            nms([], 1.5)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            dets = []
            for _ in range(10):
                x0, y0 = rng.uniform(0, 30, 2)
                w, h = rng.uniform(1, 20, 2)
                dets.append(det(x0, y0, x0 + w, y0 + h, round(float(rng.uniform(0, 1)), 3)))
            threshold = float(rng.uniform(0.2, 0.8))
            kept = nms(dets, threshold)
            assert kept == nms_ref(dets, threshold)
            assert check_nms_survivors(dets, kept, threshold)

    def test_ties_and_threshold_boundary_match_oracle(self):
        # (0,0,10,10) vs (0,0,10,5) and vs (5,0,15,10) both have IoU 1/2
        # and 1/3 exactly: at the threshold a box survives (strict >), and
        # equal scores keep the input order.
        rng = np.random.default_rng(12)
        shapes = [(0, 0, 10, 10), (0, 0, 10, 5), (5, 0, 15, 10), (0, 5, 10, 10), (0, 0, 5, 10)]
        for _ in range(100):
            dets = [
                det(*shapes[int(k)], float(rng.choice([0.5, 0.7, 0.9])))
                for k in rng.integers(0, len(shapes), 8)
            ]
            for threshold in (1.0 / 3.0, 0.5):
                kept = nms(dets, threshold)
                assert [id(d) for d in kept] == [id(d) for d in nms_ref(dets, threshold)]

    def test_walk_scores_blocks_of_at_most_256_rows(self, monkeypatch):
        # Memory guard: the single-frame walk settles a block of at most 256
        # rows on itself in one call, then scores the block's kept rows
        # against the rest in at most one more. Every block keeps its first
        # row, so the calls number at most twice the kept rows.
        calls = []
        original = geometry.iou_pairs

        def recording(a, b):
            calls.append((a.shape[0], np.shares_memory(a, b)))  # a settle: two views of a block
            return original(a, b)

        monkeypatch.setattr(geometry, "iou_pairs", recording)
        rng = np.random.default_rng(13)
        x0, y0 = rng.uniform(0, 600, (2, 1000))
        w, h = rng.uniform(5, 30, (2, 1000))
        table = one_frame_table(np.stack([x0, y0, x0 + w, y0 + h], axis=1), rng.uniform(0, 1, 1000))
        kept = nms(table, 0.3)
        rows = [n for n, _ in calls]
        assert calls and calls[0][1] and max(rows) == 256
        assert all(prev[1] for prev, (_, settle) in zip(calls, calls[1:]) if not settle)
        assert len(calls) <= 2 * len(kept)

    def test_walk_peak_memory_stays_bounded_on_a_huge_frame(self):
        # 20,000 boxes in 2,000 disjoint cells of ten near-copies: every
        # cell keeps one box, so the block size climbs while thousands of
        # rows are live. Without the cap of 2**18 values on B * live rows,
        # the walk's IoU temporaries peak at about 180 MB.
        cells, copies = 2000, 10
        cell = np.arange(cells)
        x0 = np.repeat(cell % 100 * 20.0, copies) + np.tile(np.arange(copies) * 0.1, cells)
        y0 = np.repeat(cell // 100 * 20.0, copies)
        scores = np.repeat(np.random.default_rng(14).uniform(0.5, 1.0, cells), copies)
        scores -= np.tile(np.arange(copies) * 0.05, cells)
        table = one_frame_table(np.stack([x0, y0, x0 + 10.0, y0 + 10.0], axis=1), scores)
        tracemalloc.start()
        try:
            kept = nms(table, 0.45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) == cells and peak < 16e6

    def test_per_frame_runs_each_frame_alone_in_sorted_frame_order(self):
        rng = np.random.default_rng(15)
        dets = []
        for frame in ("b", "a\x00", "a", "c"):
            for _ in range(12):
                x0, y0 = rng.uniform(0, 30, 2)
                w, h = rng.uniform(5, 20, 2)
                dets.append(Detection(BBox(x0, y0, x0 + w, y0 + h), 0.5, "vis", "s80", frame))
        rng.shuffle(dets)
        kept = nms(dets, 0.3)
        expected = []
        for frame in ("a", "a\x00", "b", "c"):
            expected += nms_ref([d for d in dets if d.frame_id == frame], 0.3)
        assert [id(d) for d in kept] == [id(d) for d in expected]
        table = nms(DetectionTable.from_detections(dets), 0.3)
        assert isinstance(table, DetectionTable) and table == expected
        assert nms([], 0.3) == []

    def test_idempotent_and_subset(self):
        rng = np.random.default_rng(10)
        dets = []
        for _ in range(20):
            x0, y0 = rng.uniform(0, 30, 2)
            w, h = rng.uniform(1, 20, 2)
            dets.append(det(x0, y0, x0 + w, y0 + h, float(rng.uniform(0, 1))))
        kept = nms(dets, 0.45)
        assert all(k in dets for k in kept)
        assert nms(kept, 0.45) == kept
        scores = [k.score for k in kept]
        assert scores == sorted(scores, reverse=True)


def _mixed_dets():
    # Frames out of order, a frame id with a trailing NUL, every modality
    # and scale.
    frames = ["b", "a\x00", "a", "b", "a"]
    return [
        Detection(BBox(k, 2 * k, k + 3.5, 2 * k + 1.25), 0.1 * (k + 1),
                  geometry.MODALITIES[k % 3], geometry.SCALES[k % 3], frame)
        for k, frame in enumerate(frames)
    ]


_ROW = [[0.0, 0.0, 1.0, 1.0]]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Detection(box(0, 0, 1, 1), 0.5, "uv", "s80", "f"), "unknown modality 'uv'"),
        (lambda: Detection(box(0, 0, 1, 1), 0.5, "ir", "s10", "f"), "unknown scale_id 's10'"),
        (lambda: check_corners(np.ones((2, 3))), "expected (N, 4) corners, got shape (2, 3)"),
        (lambda: check_corners(np.ones(4)), "expected (N, 4) corners, got shape (4,)"),
        (
            lambda: DetectionTable(_ROW, [0.5, 0.5], [0], ["f"], [0], [0]),
            "scores: expected shape (1,), got (2,)",
        ),
        (
            lambda: DetectionTable(_ROW, [0.5], [0], ["f"], [0], [0]).subset(modality="uv"),
            "unknown modality 'uv'",
        ),
        (
            lambda: DetectionTable(_ROW, [0.5], [0], ["f"], [0], [0]).subset(scale_id="s10"),
            "unknown scale_id 's10'",
        ),
    ],
    ids=["modality", "scale", "corners_columns", "corners_rank", "scores", "subset_modality",
         "subset_scale"],
)
def test_invalid_tag_or_shape_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


class TestDetectionTable:
    def test_rows_round_trip(self):
        dets = _mixed_dets()
        table = DetectionTable.from_detections(dets)
        assert len(table) == len(dets)
        assert list(table) == dets and table == dets
        assert table[1] == dets[1] and table[-1] == dets[-1]
        assert isinstance(table[1:3], DetectionTable) and table[1:3] == dets[1:3]
        with pytest.raises(IndexError):
            table[len(dets)]
        assert DetectionTable.from_detections([]) == []

    def test_frame_ids_keep_python_str_order_and_trailing_nul(self):
        table = DetectionTable.from_detections(_mixed_dets())
        assert table.frame_ids == ("a", "a\x00", "b")
        assert [(frame, rows.tolist()) for frame, rows in table.by_frame()] == [
            ("a", [2, 4]), ("a\x00", [1]), ("b", [0, 3]),
        ]

    def test_constructor_raises_the_row_error(self):
        corners = [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, math.inf, 1.0]]
        with pytest.raises(ValueError, match="row 1: invalid box corners"):
            DetectionTable(corners, [0.5, 0.5], [0, 0], ["f"], [0, 0], [0, 0])
        with pytest.raises(ValueError, match=r"row 0: score must be in \[0, 1\]"):
            DetectionTable(corners[:1], [1.5], [0], ["f"], [0], [0])
        with pytest.raises(ValueError, match="sorted order"):
            DetectionTable(corners[:1], [0.5], [0], ["g", "f"], [0], [0])
        with pytest.raises(ValueError, match="modality_codes"):
            DetectionTable(corners[:1], [0.5], [0], ["f"], [3], [0])
        with pytest.raises(ValueError, match="corners"):
            DetectionTable([[0.0, 1.0]], [0.5], [0], ["f"], [0], [0])

    def test_concat_merges_frame_ids_and_tags(self):
        dets = _mixed_dets()
        parts = [DetectionTable.from_detections(dets[:2]), DetectionTable.from_detections(dets[2:])]
        merged = DetectionTable.concat(parts)
        assert merged == dets
        assert merged.frame_ids == ("a", "a\x00", "b")

    def test_take_subset_and_groups_select_rows_in_order(self):
        dets = _mixed_dets()
        table = DetectionTable.from_detections(dets)
        assert table.take([3, 0]) == [dets[3], dets[0]]
        assert table.subset(frame_id="a") == [d for d in dets if d.frame_id == "a"]
        assert table.subset(frame_id="zz") == []
        assert table.subset(modality="ir", scale_id="s40") == [
            d for d in dets if d.modality == "ir" and d.scale_id == "s40"
        ]

    def test_nms_on_a_table_returns_the_same_rows_as_a_table(self):
        rng = np.random.default_rng(17)
        dets = []
        for _ in range(60):
            x0, y0 = rng.uniform(0, 40, 2).tolist()
            w, h = rng.uniform(2, 20, 2).tolist()
            dets.append(det(x0, y0, x0 + w, y0 + h, float(rng.choice([0.3, 0.5, 0.9]))))
        kept = nms(DetectionTable.from_detections(dets), 0.4)
        assert isinstance(kept, DetectionTable)
        assert kept == nms(dets, 0.4)

    @given(st.lists(boxes(), min_size=1, max_size=6), st.lists(boxes(), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_iou_pairs_equals_scalar_iou_bitwise(self, a, b):
        n = min(len(a), len(b))
        got = iou_pairs(boxes_array(a[:n]), boxes_array(b[:n]))
        assert got.tolist() == [iou(x, y) for x, y in zip(a[:n], b[:n])]
