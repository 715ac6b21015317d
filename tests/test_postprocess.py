"""Cross-modal pair fusion and the four output strategies."""

import math

import numpy as np
import pytest

from msfusion import geometry
from msfusion.geometry import BBox, Detection, DetectionTable
from msfusion.postprocess import PostprocessConfig, fuse_scale, run_strategy
from oracles import fuse_scale_ref, run_strategy_ref, walk_nms_ref

RNG = np.random.default_rng


def det(x0, y0, x1, y1, score, modality="vis", frame="f0", scale="s80"):
    return Detection(BBox(x0, y0, x1, y1), score, modality, scale, frame)


def random_frame_dets(rng, frame, modality, count, scale="s80"):
    out = []
    for _ in range(count):
        x0, y0 = rng.uniform(0, 40, 2)
        w, h = rng.uniform(2, 25, 2)
        out.append(
            det(x0, y0, x0 + w, y0 + h, round(float(rng.uniform(0, 1)), 3), modality, frame, scale)
        )
    return out


class TestConfig:
    def test_threshold_bounds_checked(self):
        with pytest.raises(ValueError, match="iou_thres"):
            PostprocessConfig(iou_thres=1.2)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            PostprocessConfig(strategy="mean")


class TestFuseScale:
    def _cfg(self, iou_thres=0.4, conf=0.2):
        return PostprocessConfig(
            conf_threshold_v=conf, conf_threshold_t=conf, iou_thres=iou_thres
        )

    def test_worked_pair_example(self):
        vis = [det(0, 0, 10, 10, 0.8, "vis")]
        ir = [det(2, 2, 12, 12, 0.6, "ir")]
        fused = fuse_scale(vis, ir, self._cfg(iou_thres=0.4))
        assert len(fused) == 1
        out = fused[0]
        assert out.center_form == (6.0, 6.0, 12.0, 12.0)
        assert out.f_conf == pytest.approx(0.7)
        assert out.parent_v == 0 and out.parent_t == 0

    def test_same_pair_blocked_by_higher_threshold(self):
        vis = [det(0, 0, 10, 10, 0.8, "vis")]
        ir = [det(2, 2, 12, 12, 0.6, "ir")]
        assert fuse_scale(vis, ir, self._cfg(iou_thres=0.5)) == []

    @pytest.mark.parametrize(
        "ir_box, iou_thres",
        [((0, 0, 10, 5), 0.5), ((5, 0, 15, 10), 1.0 / 3.0), ((0, 0, 5, 5), 0.25)],
    )
    def test_iou_exactly_at_threshold_fuses(self, ir_box, iou_thres):
        # IoU 1/2, 1/3 and 1/4 exactly against (0,0,10,10): fusion uses >=.
        vis = [det(0, 0, 10, 10, 0.8, "vis")]
        ir = [det(*ir_box, 0.6, "ir")]
        fused = fuse_scale(vis, ir, self._cfg(iou_thres=iou_thres))
        want = fuse_scale_ref(vis, ir, 0.2, 0.2, iou_thres)
        assert len(fused) == len(want) == 1
        assert fused[0].box == want[0][3] and fused[0].f_conf == want[0][4]
        assert fuse_scale(vis, ir, self._cfg(iou_thres=math.nextafter(iou_thres, 2.0))) == []

    def test_empty_visible_side_contributes_nothing(self):
        ir = [det(0, 0, 10, 10, 0.9, "ir")]
        assert fuse_scale([], ir, self._cfg()) == []

    def test_low_confidence_side_empties_the_frame(self):
        vis = [det(0, 0, 10, 10, 0.1, "vis")]
        ir = [det(0, 0, 10, 10, 0.9, "ir")]
        assert fuse_scale(vis, ir, self._cfg(conf=0.2)) == []

    def test_mixed_scales_rejected(self):
        vis = [det(0, 0, 10, 10, 0.9, "vis", scale="s80")]
        ir = [det(0, 0, 10, 10, 0.9, "ir", scale="s40")]
        with pytest.raises(ValueError, match="mixed scale_id"):
            fuse_scale(vis, ir, self._cfg())

    def test_many_to_many_pairs_in_order(self):
        vis = [det(0, 0, 10, 10, 0.9, "vis"), det(1, 1, 11, 11, 0.8, "vis")]
        ir = [det(0, 0, 10, 10, 0.7, "ir"), det(2, 2, 12, 12, 0.6, "ir")]
        fused = fuse_scale(vis, ir, self._cfg(iou_thres=0.4))
        pairs = [(f.parent_v, f.parent_t) for f in fused]
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_matches_brute_force_oracle(self):
        rng = RNG(20)
        cfg = self._cfg(iou_thres=0.45, conf=0.3)
        vis, ir = [], []
        for frame in ("f0", "f1", "f2"):
            vis += random_frame_dets(rng, frame, "vis", int(rng.integers(0, 8)))
            ir += random_frame_dets(rng, frame, "ir", int(rng.integers(0, 8)))
        got = fuse_scale(vis, ir, cfg)
        want = fuse_scale_ref(vis, ir, 0.3, 0.3, 0.45)
        assert len(got) == len(want)
        for g, (frame, i, j, hull, conf) in zip(got, want):
            assert (g.frame_id, g.parent_v, g.parent_t) == (frame, i, j)
            assert g.box == hull
            assert g.f_conf == conf

    def test_invariants_on_random_inputs(self):
        rng = RNG(21)
        for _ in range(20):
            vis = random_frame_dets(rng, "f0", "vis", int(rng.integers(1, 8)))
            ir = random_frame_dets(rng, "f0", "ir", int(rng.integers(1, 8)))
            loose = fuse_scale(vis, ir, self._cfg(iou_thres=0.3, conf=0.0))
            tight = fuse_scale(vis, ir, self._cfg(iou_thres=0.6, conf=0.0))
            assert len(loose) <= len(vis) * len(ir)
            tight_pairs = {(f.parent_v, f.parent_t) for f in tight}
            loose_pairs = {(f.parent_v, f.parent_t) for f in loose}
            assert tight_pairs <= loose_pairs  # raising the threshold shrinks
            for f in loose:
                pv, pt = vis[f.parent_v], ir[f.parent_t]
                for parent in (pv.box, pt.box):
                    assert f.box.x_min <= parent.x_min and f.box.y_min <= parent.y_min
                    assert f.box.x_max >= parent.x_max and f.box.y_max >= parent.y_max
                lo, hi = sorted((pv.score, pt.score))
                assert lo <= f.f_conf <= hi

    def test_deterministic_ordering(self):
        rng = RNG(22)
        vis = random_frame_dets(rng, "f0", "vis", 6)
        ir = random_frame_dets(rng, "f0", "ir", 6)
        cfg = self._cfg(iou_thres=0.2, conf=0.0)
        first = fuse_scale(vis, ir, cfg)
        second = fuse_scale(list(vis), list(ir), cfg)
        assert first == second


class TestRunStrategy:
    def _cfg(self, strategy, **kw):
        return PostprocessConfig(strategy=strategy, **kw)

    def test_algo1_drops_non_overlapping_modalities(self):
        vis = [det(0, 0, 10, 10, 0.9, "vis")]
        ir = [det(50, 50, 60, 60, 0.9, "ir")]
        assert run_strategy(vis, ir, self._cfg("algo1")) == []

    def test_both_keeps_disjoint_union(self):
        vis = [det(0, 0, 10, 10, 0.9, "vis")]
        ir = [det(50, 50, 60, 60, 0.8, "ir")]
        out = run_strategy(vis, ir, self._cfg("both"))
        assert len(out) == 2
        assert {d.modality for d in out} == {"vis", "ir"}

    def test_single_modality_strategies_ignore_the_other(self):
        vis = [det(0, 0, 10, 10, 0.9, "vis")]
        ir = [det(0, 0, 10, 10, 0.8, "ir")]
        assert [d.modality for d in run_strategy(vis, ir, self._cfg("vis"))] == ["vis"]
        assert [d.modality for d in run_strategy(vis, ir, self._cfg("ir"))] == ["ir"]

    def test_algo1_fused_boxes_survive_nms(self):
        vis = [det(0, 0, 10, 10, 0.8, "vis")]
        ir = [det(2, 2, 12, 12, 0.6, "ir")]
        out = run_strategy(vis, ir, self._cfg("algo1", iou_thres=0.4))
        assert len(out) == 1
        assert out[0].modality == "fused"
        assert out[0].score == pytest.approx(0.7)

    def test_scale_locality(self):
        # fusion is scale-local: reordering detections across scales while
        # preserving within-scale order leaves the algo1 output unchanged
        rng = RNG(24)
        vis, ir = [], []
        for scale in ("s80", "s40", "s20"):
            vis += random_frame_dets(rng, "f0", "vis", 5, scale)
            ir += random_frame_dets(rng, "f0", "ir", 5, scale)
        cfg = PostprocessConfig(strategy="algo1", iou_thres=0.3)
        base = run_strategy(vis, ir, cfg)

        def regroup(dets):
            return [d for s in ("s20", "s80", "s40") for d in dets if d.scale_id == s]

        assert run_strategy(regroup(vis), regroup(ir), cfg) == base

    @pytest.mark.parametrize("strategy", ["vis", "ir", "both", "algo1"])
    def test_matches_brute_force_strategy_oracle(self, strategy):
        rng = RNG(23)
        cfg = PostprocessConfig(
            conf_threshold_v=0.25,
            conf_threshold_t=0.25,
            iou_thres=0.45,
            nms_threshold=0.5,
            strategy=strategy,
        )
        vis, ir = [], []
        for frame in ("f0", "f1"):
            for scale in ("s80", "s40", "s20"):
                vis += random_frame_dets(rng, frame, "vis", int(rng.integers(0, 6)), scale)
                ir += random_frame_dets(rng, frame, "ir", int(rng.integers(0, 6)), scale)
        got = run_strategy(vis, ir, cfg)
        want = run_strategy_ref(vis, ir, strategy, 0.25, 0.25, 0.45, 0.5)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.box, g.score, g.frame_id, g.scale_id) == (
                w.box,
                w.score,
                w.frame_id,
                w.scale_id,
            )


class TestTableInputs:
    def _corpus(self, seed):
        rng = RNG(seed)
        vis, ir = [], []
        for frame in ("f1", "f0", "f0\x00"):
            for scale in ("s80", "s40", "s20"):
                vis += random_frame_dets(rng, frame, "vis", int(rng.integers(0, 7)), scale)
                ir += random_frame_dets(rng, frame, "ir", int(rng.integers(0, 7)), scale)
        return vis, ir

    def test_fuse_scale_table_rows_equal_the_list_form(self):
        vis, ir = self._corpus(31)
        vis = [d for d in vis if d.scale_id == "s40"]
        ir = [d for d in ir if d.scale_id == "s40"]
        cfg = PostprocessConfig(iou_thres=0.3)
        fused = fuse_scale(DetectionTable.from_detections(vis), DetectionTable.from_detections(ir), cfg)
        assert isinstance(fused, DetectionTable)
        assert fused == [
            Detection(f.box, f.f_conf, "fused", f.scale_id, f.frame_id)
            for f in fuse_scale(vis, ir, cfg)
        ]

    @pytest.mark.parametrize("strategy", ["vis", "ir", "both", "algo1"])
    def test_run_strategy_table_rows_equal_the_list_form(self, strategy):
        vis, ir = self._corpus(32)
        cfg = PostprocessConfig(iou_thres=0.3, strategy=strategy)
        # Separate tables have separate frame-id lists; one table's subsets share one.
        pooled = DetectionTable.from_detections(vis + ir)
        for table_v, table_t in [
            (DetectionTable.from_detections(vis), DetectionTable.from_detections(ir)),
            (pooled.subset(modality="vis"), pooled.subset(modality="ir")),
        ]:
            got = run_strategy(table_v, table_t, cfg)
            assert isinstance(got, DetectionTable)
            assert got == run_strategy(vis, ir, cfg)


def crowded_frame(rng, persons=25, candidates=8, false_pos=50):
    """One 640 x 512 frame: per modality and scale, ``candidates`` jittered
    boxes around each of ``persons`` people plus ``false_pos`` loose boxes,
    rounded as a detection dump rounds them."""
    tall = np.exp(rng.uniform(np.log(60.0), np.log(200.0), persons))
    people = np.stack(
        [rng.uniform(0, 640 - 0.41 * tall), rng.uniform(0, 512 - tall), 0.41 * tall, tall], 1
    )
    corners, scores, modalities, scales = [], [], [], []
    for modality in (0, 1):
        for scale in (0, 1, 2):
            x, y, w, h = np.repeat(people, candidates, axis=0).T
            x = np.clip(x + rng.normal(0, 0.1 * w), 0, 638)
            y = np.clip(y + rng.normal(0, 0.1 * h), 0, 508)
            w = np.maximum(w * np.exp(rng.normal(0, 0.1, len(w))), 2.0)
            h = np.maximum(h * np.exp(rng.normal(0, 0.1, len(h))), 4.0)
            fh = np.exp(rng.uniform(np.log(20.0), np.log(200.0), false_pos))
            fx, fy = rng.uniform(0, 640 - 0.41 * fh), rng.uniform(0, 512 - fh)
            x, y = np.concatenate([x, fx]), np.concatenate([y, fy])
            x1 = np.minimum(x + np.concatenate([w, 0.41 * fh]), 640)
            y1 = np.minimum(y + np.concatenate([h, fh]), 512)
            corners.append(np.round(np.stack([x, y, x1, y1], 1), 2))
            scores.append(np.round(np.concatenate(
                [rng.beta(5, 2, len(w)), rng.beta(2, 5, false_pos)]), 6))
            modalities.append(np.full(len(x), modality))
            scales.append(np.full(len(x), scale))
    n = sum(map(len, scores))
    return DetectionTable(
        np.concatenate(corners), np.concatenate(scores), np.zeros(n, dtype=np.intp),
        ("000000",), np.concatenate(modalities), np.concatenate(scales),
    )


@pytest.mark.parametrize("strategy", ["vis", "ir", "both", "algo1"])
def test_crowded_frame_matches_the_walk_reference(strategy, monkeypatch):
    # A frame at benchmark crowd scale (1,500 boxes, thousands of fused
    # ones): the block walk gives the rows of one IoU row per kept box.
    frame = crowded_frame(RNG(41))
    assert len(frame) == 1500
    vis, ir = frame.subset(modality="vis"), frame.subset(modality="ir")
    cfg = PostprocessConfig(strategy=strategy)
    got = run_strategy(vis, ir, cfg)
    monkeypatch.setattr(geometry, "_segmented_nms", walk_nms_ref)
    want = run_strategy(vis, ir, cfg)
    assert len(want) > 20
    assert got.frame_ids == want.frame_ids
    for name in ("corners", "scores", "frame_codes", "modality_codes", "scale_codes"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
