"""Reliability scoring, RoIAlign, relation matrices, and KL losses."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfusion import balance as balance_module
from msfusion.balance import (
    ReliabilityReport,
    best_ciou_scores,
    corpus_reliability,
    cosine_matrix,
    kl_loss,
    kl_rowwise,
    modality_alignment_loss,
    relation_matrix,
    reliability,
    roi_align,
    thermal_reliability_percentage,
    total_loss,
)
from msfusion.evaluation import FrameRecord, GroundTruthBox
from msfusion.geometry import SCALES, BBox, Detection, DetectionTable, boxes_array, ciou
from oracles import alignment_loss_ref, kl_ref, relation_ref, roi_ref, supersampled_roi

RNG = np.random.default_rng


def det(box, score=0.5, modality="vis", frame="f0", scale="s80"):
    return Detection(box, score, modality, scale, frame)


def random_dets(rng, count, modality):
    out = []
    for _ in range(count):
        x0, y0 = rng.uniform(0, 40, 2)
        w, h = rng.uniform(2, 30, 2)
        out.append(det(BBox(x0, y0, x0 + w, y0 + h), float(rng.uniform(0, 1)), modality))
    return out


class TestReliability:
    def test_mean_of_top_scores(self):
        # detection CIoU scores against the single gt work out to 1.0 and 0.5-ish;
        # use directly constructed score sets through two identical boxes instead
        gt = [BBox(0, 0, 10, 10)]
        dets = [det(BBox(0, 0, 10, 10), 0.9), det(BBox(0, 0, 10, 10), 0.8)]
        report = reliability(dets, dets, gt, n_top=2)
        assert report.r_v == pytest.approx(1.0)
        assert report.r_t == pytest.approx(1.0)

    def test_top_n_average_arithmetic(self):
        # scores {1.0, 0.5} averaged over n_top=2 -> 0.75; realize 0.5 by a
        # box whose CIoU against the gt is known, so check via the oracle sort
        rng = RNG(0)
        gt = [BBox(10, 10, 30, 30)]
        vis = random_dets(rng, 6, "vis")
        scores = best_ciou_scores(vis, gt)
        expected = float(np.sort(scores)[::-1][:2].mean())
        report = reliability(vis, [], gt, n_top=2)
        assert report.r_v == pytest.approx(expected, abs=1e-12)

    def test_tie_resolves_to_visible(self):
        gt = [BBox(0, 0, 10, 10)]
        dets_v = [det(BBox(0, 0, 10, 10), 0.9, "vis")]
        dets_t = [det(BBox(0, 0, 10, 10), 0.9, "ir")]
        report = reliability(dets_v, dets_t, gt)
        assert report.r_v == report.r_t == pytest.approx(1.0)
        assert report.reference_modality == "vis"

    @pytest.mark.parametrize("side", ["detection", "ground truth"])
    def test_best_ciou_scores_rejects_degenerate_boxes(self, side):
        # The error names the box, its side, frame and scale; a degenerate
        # box raises whether or not it overlaps anything.
        good = [BBox(0, 0, 2, 2), BBox(1, 1, 4, 5)]
        flat = [BBox(0, 0, 2, 2), BBox(0, 0, 5, 0)]
        dets, gts = (flat, good) if side == "detection" else (good, flat)
        dets = [det(b, 0.5, "ir", "f7", "s40") for b in dets]
        message = re.escape(
            f"degenerate aspect ratio: {'ir detection' if side == 'detection' else side} "
            "(0.0, 0.0, 5.0, 0.0) of frame 'f7' at scale s40"
        )
        with pytest.raises(ValueError, match=message):
            best_ciou_scores(dets, gts)

    def test_empty_ground_truth_raises(self):
        with pytest.raises(ValueError, match="no reference objects"):
            reliability([], [], [], n_top=1)

    @pytest.mark.parametrize("n_top", [1.5, math.nan, 2.0, "3"])
    def test_non_integer_n_top_rejected(self, n_top):
        # A float leaked "TypeError: slice indices must be integers".
        gts = [BBox(0, 0, 10, 10)]
        dets = [det(BBox(0, 0, 10, 10), 0.9, "vis"), det(BBox(1, 0, 11, 10), 0.8, "ir")]
        message = f"^n_top must be an integer, got {re.escape(str(n_top))}$"
        with pytest.raises(ValueError, match=message):
            reliability(dets[:1], dets[1:], gts, n_top=n_top)
        with pytest.raises(ValueError, match=message):
            corpus_reliability(dets, [FrameRecord("f0", "day", [GroundTruthBox(gts[0])])], n_top)
        maps = np.ones((1, 1, 8, 8))
        with pytest.raises(ValueError, match=message):
            modality_alignment_loss(dets[:1], dets[1:], gts, maps, maps, n_top=n_top)

    def test_numpy_integer_n_top_accepted(self):
        gts = [BBox(0, 0, 10, 10)]
        dets = [det(BBox(0, 0, 10, 10), 0.9, "vis")]
        assert reliability(dets, [], gts, n_top=np.int64(1)) == reliability(dets, [], gts, n_top=1)

    def test_best_ciou_scores_without_ground_truth_raises(self):
        with pytest.raises(ValueError, match="^no reference objects$"):
            best_ciou_scores([det(BBox(0, 0, 4, 4))], [])

    def test_no_detections_scores_zero(self):
        report = reliability([], [], [BBox(0, 0, 5, 5)])
        assert report.r_v == 0.0 and report.r_t == 0.0
        assert report.reference_modality == "vis"
        assert report.n_used == 0

    def test_matches_brute_force_sort_and_average(self):
        rng = RNG(1)
        gts = [BBox(5, 5, 25, 45), BBox(30, 10, 50, 60)]
        vis = random_dets(rng, 20, "vis")
        ir = random_dets(rng, 20, "ir")
        report = reliability(vis, ir, gts, n_top=7)

        def brute(dets):
            scores = sorted(
                (max(ciou(d.box, g) for g in gts) for d in dets), reverse=True
            )[:7]
            return sum(scores) / len(scores)

        assert report.r_v == pytest.approx(brute(vis), abs=1e-9)
        assert report.r_t == pytest.approx(brute(ir), abs=1e-9)

    def test_permutation_invariant_and_monotone(self):
        rng = RNG(2)
        gts = [BBox(5, 5, 25, 45)]
        vis = random_dets(rng, 8, "vis")
        shuffled = list(vis)
        rng.shuffle(shuffled)
        base = reliability(vis, [], gts, n_top=4)
        assert reliability(shuffled, [], gts, n_top=4).r_v == pytest.approx(base.r_v)
        # adding a perfect detection cannot decrease the reliability
        better = vis + [det(BBox(5, 5, 25, 45), 0.5, "vis")]
        assert reliability(better, [], gts, n_top=4).r_v >= base.r_v - 1e-12


class TestCorpusReliability:
    @staticmethod
    def _sorted_slice_mean(dets, gts, n_top):
        # Each modality as the per-instance code scores it: each detection's
        # best CIoU, then the mean of the descending top slice.
        if not dets:
            return 0.0
        scores = best_ciou_scores(dets, gts)
        return float(np.sort(scores)[::-1][: min(n_top, scores.size)].mean())

    @pytest.mark.parametrize("n_top", [1, 7, 128, 300])
    def test_long_slices_match_the_sorted_slice_means_bitwise(self, n_top):
        # Slices of up to 150 scores, so numpy's pairwise summation blocks
        # (8 and 128 values) are all exercised.
        rng = RNG(17)
        dets, records = [], []
        for f in range(5):
            frame = f"{f:06d}"
            gts = [BBox(10 * g, 5, 10 * g + 30, 70) for g in range(1 + f % 3)]
            records.append(FrameRecord(frame, "day", [GroundTruthBox(b) for b in gts]))
            for scale in ("s80", "s40", "s20"):
                for modality in ("vis", "ir"):
                    dets += [det(d.box, d.score, modality, frame, scale)
                             for d in random_dets(rng, int(rng.integers(0, 150)), modality)]
        rng.shuffle(dets)
        got = corpus_reliability(DetectionTable.from_detections(dets), records, n_top)
        assert [(f, s) for f, s, _ in got] == [(r.frame_id, s) for r in records for s in SCALES]
        for frame_id, scale, report in got:
            gts = [g.box for g in records[int(frame_id)].gts]
            for modality, value in (("vis", report.r_v), ("ir", report.r_t)):
                same = [d for d in dets if (d.frame_id, d.scale_id, d.modality) == (frame_id, scale, modality)]
                assert value == self._sorted_slice_mean(same, gts, n_top)

    def test_empty_corpus_and_empty_table(self):
        assert corpus_reliability([], [], 5) == []
        record = FrameRecord("f0", "day", [GroundTruthBox(BBox(0, 0, 4, 4))])
        assert corpus_reliability([], [record], 5) == [("f0", s, None) for s in SCALES]

    def test_repeated_frame_ids_rejected(self):
        record = FrameRecord("f0", "day", [GroundTruthBox(BBox(0, 0, 4, 4))])
        with pytest.raises(ValueError, match="frame ids must be unique, 'f0' repeats"):
            corpus_reliability([], [record, record], 5)

    def test_n_top_checked(self):
        with pytest.raises(ValueError, match="n_top must be >= 1"):
            corpus_reliability([], [], 0)

    @pytest.mark.parametrize("side", ["detection", "ground truth"])
    def test_degenerate_box_names_itself_as_reliability_does(self, side):
        # A zero-width box used to raise a bare "degenerate aspect ratio".
        # The vis detection overlaps the first ground truth, so the instance
        # is scored; the first pair holding a flat box names it.
        gts = [BBox(10, 10, 30, 90), BBox(50, 10, 50, 50)]
        vis = [det(BBox(12, 12, 40, 95), 0.9, "vis", "000001", "s40")]
        ir = [det(BBox(200, 200, 200, 240), 0.8, "ir", "000001", "s40")]
        if side == "detection":
            gts = gts[:1]
            message = "ir detection (200.0, 200.0, 200.0, 240.0)"
        else:
            ir = []
            message = "ground truth (50.0, 10.0, 50.0, 50.0)"
        message = re.escape(f"degenerate aspect ratio: {message} of frame '000001' at scale s40")
        record = FrameRecord("000001", "day", [GroundTruthBox(b) for b in gts])
        with pytest.raises(ValueError, match=message):
            corpus_reliability(vis + ir, [record])
        with pytest.raises(ValueError, match=message):
            reliability(vis, ir, gts)
        maps = np.ones((1, 1, 8, 8))
        with pytest.raises(ValueError, match=message):
            modality_alignment_loss(vis, ir, gts, maps, maps, stride=16.0)


class TestRoiAlign:
    def test_constant_field(self):
        fmap = np.full((2, 3, 8, 8), 4.25)
        features = roi_align(fmap, [BBox(1.0, 1.5, 6.0, 7.0)])
        np.testing.assert_allclose(features, 4.25, atol=1e-12)
        assert features.shape == (1, 2 * 3 * 9)

    def test_single_pixel_box_with_flat_neighborhood(self):
        # A unit box over one pixel samples inside that pixel's bilinear
        # neighborhood; making the neighborhood flat pins every bin to the
        # pixel's value and distinct values elsewhere check locality.
        fmap = RNG(3).uniform(10, 20, (1, 1, 8, 8))
        fmap[0, 0, 2:5, 3:6] = 7.5  # 3x3 flat neighborhood around pixel (3, 4)
        features = roi_align(fmap, [BBox(4.0, 3.0, 5.0, 4.0)])
        np.testing.assert_allclose(features, 7.5, atol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(1, 2, 0, 16), (1, 2, 16, 0), (0, 2, 16, 16), (1, 0, 16, 16)]
    )
    def test_empty_axis_rejected_naming_the_shape(self, shape):
        # These used to leak IndexError or ZeroDivisionError.
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            roi_align(np.ones(shape), [BBox(1, 1, 5, 5)])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="positive area"):
            roi_align(np.zeros((1, 1, 8, 8)), [BBox(2, 2, 2, 4)])

    def test_matches_supersampling_oracle(self):
        # Boxes at half-integer corners with whole-pixel bins keep every
        # sample inside a single bilinear cell, where the 2x2 quarter-point
        # rule integrates exactly; the dense oracle then agrees to 1e-2.
        rng = RNG(4)
        fmap = rng.uniform(0, 1, (2, 2, 8, 8))
        for _ in range(10):
            bins = int(rng.integers(1, 3))  # bins of 1 or 2 whole pixels
            x0 = float(rng.integers(0, 8 - 3 * bins)) + 0.5
            y0 = float(rng.integers(0, 8 - 3 * bins)) + 0.5
            box = BBox(x0, y0, x0 + 3 * bins, y0 + 3 * bins)
            (got,) = roi_align(fmap, [box])
            want = supersampled_roi(fmap, box)
            assert np.max(np.abs(got - want)) <= 1e-2

    def test_close_to_bin_means_for_generic_boxes(self):
        # Off-grid bins cross bilinear cell kinks, so the 2x2 rule is only
        # an approximation of the bin mean; agreement stays coarse-bounded.
        rng = RNG(44)
        fmap = rng.uniform(0, 1, (1, 2, 8, 8))
        for _ in range(10):
            x0, y0 = rng.uniform(0.5, 2.0, 2)
            w, h = rng.uniform(2.0, 5.0, 2)
            box = BBox(x0, y0, x0 + w, y0 + h)
            (got,) = roi_align(fmap, [box])
            want = supersampled_roi(fmap, box)
            assert np.max(np.abs(got - want)) <= 0.15

    def test_linear_in_the_feature_map(self):
        rng = RNG(5)
        x = rng.standard_normal((2, 3, 8, 8))
        y = rng.standard_normal((2, 3, 8, 8))
        box = BBox(1.2, 0.8, 6.3, 6.9)
        lhs = roi_align(2.0 * x + 3.0 * y, [box])
        rhs = 2.0 * roi_align(x, [box]) + 3.0 * roi_align(y, [box])
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestBatchedRoiAlign:
    def _boxes(self, rng, count, side):
        # Anywhere from well inside to mostly off the map on every side.
        out = []
        for _ in range(count):
            x0, y0 = rng.uniform(-4.0, side + 2.0, 2)
            w, h = rng.uniform(0.3, 6.0, 2)
            out.append(BBox(x0, y0, x0 + w, y0 + h))
        return out

    def test_rows_match_per_box_bilinear_oracle(self):
        rng = RNG(60)
        fmap = rng.standard_normal((2, 3, 9, 7))
        boxes = self._boxes(rng, 40, 8) + [BBox(-3.0, -3.0, 12.0, 10.0)]
        got = roi_align(fmap, boxes)
        assert got.shape == (len(boxes), 9 * 2 * 3)
        for row, box in zip(got, boxes):
            np.testing.assert_allclose(row, roi_ref(fmap, box), rtol=0, atol=1e-12)

    def test_single_box_is_the_one_row_case(self):
        rng = RNG(61)
        fmap = rng.standard_normal((1, 4, 8, 8))
        boxes = self._boxes(rng, 5, 8)
        batch = roi_align(fmap, boxes)
        for k, box in enumerate(boxes):
            np.testing.assert_array_equal(roi_align(fmap, [box]), batch[k : k + 1])

    def test_chunking_does_not_change_the_result(self, monkeypatch):
        rng = RNG(62)
        fmap = rng.standard_normal((2, 2, 8, 8))
        boxes = self._boxes(rng, 11, 8)
        whole = roi_align(fmap, boxes)
        monkeypatch.setattr(balance_module, "_block", lambda item_bytes: 1)  # one box per chunk
        np.testing.assert_array_equal(roi_align(fmap, boxes), whole)

    def test_degenerate_box_in_batch_rejected(self):
        with pytest.raises(ValueError, match="positive area"):
            roi_align(np.zeros((1, 1, 8, 8)), [BBox(0, 0, 2, 2), BBox(2, 2, 2, 4)])

    def test_corner_array_pools_like_the_boxes(self):
        rng = RNG(63)
        fmap = rng.standard_normal((2, 3, 8, 8))
        boxes = self._boxes(rng, 9, 8)
        np.testing.assert_array_equal(roi_align(fmap, boxes_array(boxes)), roi_align(fmap, boxes))

    def test_invalid_corner_array_rejected(self):
        fmap = np.zeros((1, 1, 8, 8))
        with pytest.raises(ValueError, match="invalid box corners"):
            roi_align(fmap, np.array([[0.0, 0.0, 2.0, 2.0], [0.0, 0.0, np.inf, 2.0]]))
        with pytest.raises(ValueError, match="positive area, got BBox"):
            roi_align(fmap, np.array([[2.0, 2.0, 2.0, 4.0]]))


class TestCosineMatrix:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        out = cosine_matrix([v, v])
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_orthogonal_vectors(self):
        out = cosine_matrix([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero-norm RoI feature at index 1"):
            cosine_matrix([np.ones(3), np.zeros(3)])

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
    def test_huge_and_tiny_finite_rows(self, scale):
        # 1e200 overflowed the Gram product (a RuntimeWarning, NaN with
        # warnings off); 1e-200 and subnormals underflowed the norm, so a
        # nonzero row was rejected as zero-norm.
        cos = cosine_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]) * scale)
        np.testing.assert_allclose(cos, [[1.0, 0.0], [0.0, 1.0]], rtol=0, atol=1e-15)

    def test_rows_of_any_scale_give_the_cosines_of_unit_rows(self):
        rng = RNG(8)
        rows = rng.standard_normal((6, 9))
        scaled = rows * np.array([1e300, 1e-300, 1e150, 1.0, 1e-305, 1e-3])[:, None]
        np.testing.assert_allclose(cosine_matrix(scaled), cosine_matrix(rows), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("features", [[], np.empty((0, 4))], ids=["list", "array"])
    def test_no_vector_rejected(self, features):
        with pytest.raises(ValueError, match="^need at least one RoI feature$"):
            cosine_matrix(features)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        # It made the whole matrix NaN, with a RuntimeWarning from the division.
        features = np.ones((3, 4))
        features[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite RoI feature at index 1"):
            cosine_matrix(features)

    def test_matches_dot_product_oracle(self):
        rng = RNG(6)
        vecs = [rng.standard_normal(12) for _ in range(5)]
        out = cosine_matrix(np.stack(vecs))
        for i in range(5):
            for j in range(5):
                want = float(
                    np.dot(vecs[i], vecs[j])
                    / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j]))
                )
                assert out[i, j] == pytest.approx(want, abs=1e-9)
        np.testing.assert_array_equal(out, out.T)
        np.testing.assert_array_equal(np.diag(out), np.ones(5))


class TestRelationMatrix:
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_matrix_of_another_rank_rejected(self, shape):
        message = re.escape(f"expected a 2-D matrix, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            relation_matrix(np.zeros(shape))

    def test_two_zeros_split_evenly(self):
        out = relation_matrix(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_constant_row_is_uniform(self):
        out = relation_matrix(np.full((3, 3), 0.37))
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_matches_direct_exponent_oracle(self):
        rng = RNG(7)
        cos = rng.uniform(-1, 1, (4, 4))
        np.testing.assert_allclose(relation_matrix(cos), relation_ref(cos), atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            relation_matrix(np.array([[np.inf, 0.0]]))

    @given(
        st.lists(
            st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=100)
    def test_rows_sum_to_one_on_cosine_range(self, rows):
        out = relation_matrix(np.array(rows))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    @given(
        st.lists(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=100)
    def test_rows_sum_to_one_for_wide_inputs(self, rows):
        out = relation_matrix(np.array(rows))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out > 0.0)


class TestKL:
    def test_identical_matrices_zero(self):
        p = relation_matrix(RNG(8).uniform(-1, 1, (4, 4)))
        assert kl_rowwise(p, p) == 0.0

    def test_hand_case(self):
        p = np.array([[0.75, 0.25]])
        q = np.array([[0.5, 0.5]])
        want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl_rowwise(p, q) == pytest.approx(want, abs=1e-12)
        assert kl_rowwise(p, q) == pytest.approx(0.130812, abs=1e-6)

    def test_nonnegative_and_asymmetric(self):
        rng = RNG(9)
        for _ in range(50):
            p = relation_matrix(rng.uniform(-1, 1, (3, 3)))
            q = relation_matrix(rng.uniform(-1, 1, (3, 3)))
            assert kl_rowwise(p, q) >= -1e-12
            assert kl_rowwise(p, q) != kl_rowwise(q, p)

    def test_zero_entries_in_p_contribute_nothing(self):
        p = np.array([[0.0, 1.0]])
        q = np.array([[0.5, 0.5]])
        assert kl_rowwise(p, q) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kl_rowwise(np.ones((2, 2)) / 2, np.ones((3, 3)) / 3)

    @pytest.mark.parametrize(
        "p, q, name",
        [
            ([[math.nan, 1.0]], [[0.5, 0.5]], "p"),  # used to drop the NaN: 0.693
            ([[math.inf, 1.0]], [[0.5, 0.5]], "p"),
            ([[-0.5, 1.5]], [[0.5, 0.5]], "p"),
            ([[0.5, 0.5]], [[math.nan, 0.5]], "q"),  # used to give NaN
            ([[0.5, 0.5]], [[math.inf, 0.5]], "q"),  # used to give -inf
        ],
        ids=["nan_p", "inf_p", "negative_p", "nan_q", "inf_q"],
    )
    def test_non_finite_or_negative_entries_rejected(self, p, q, name):
        with pytest.raises(ValueError, match=f"^{name} entries must be"):
            kl_rowwise(np.array(p), np.array(q))

    def test_matches_loop_oracle(self):
        rng = RNG(10)
        p = relation_matrix(rng.uniform(-1, 1, (5, 5)))
        q = relation_matrix(rng.uniform(-1, 1, (5, 5)))
        assert kl_rowwise(p, q) == pytest.approx(kl_ref(p, q), abs=1e-12)


class TestKLLoss:
    def _report(self, r_v, r_t):
        thermal = r_t > r_v
        return ReliabilityReport(
            r_v=r_v,
            r_t=r_t,
            reference_modality="ir" if thermal else "vis",
            n_used=3,
        )

    def test_equal_matrices_zero_either_branch(self):
        m = relation_matrix(RNG(11).uniform(-1, 1, (3, 3)))
        assert kl_loss(self._report(0.9, 0.1), m, m) == 0.0
        assert kl_loss(self._report(0.1, 0.9), m, m) == 0.0

    def test_branch_selection(self):
        rng = RNG(12)
        m_v = relation_matrix(rng.uniform(-1, 1, (3, 3)))
        m_t = relation_matrix(rng.uniform(-1, 1, (3, 3)))
        assert kl_loss(self._report(0.2, 0.8), m_v, m_t) == kl_rowwise(m_t, m_v)
        assert kl_loss(self._report(0.8, 0.2), m_v, m_t) == kl_rowwise(m_v, m_t)

    def test_swapping_reliabilities_flips_direction(self):
        rng = RNG(13)
        m_v = relation_matrix(rng.uniform(-1, 1, (4, 4)))
        m_t = relation_matrix(rng.uniform(-1, 1, (4, 4)))
        forward = kl_loss(self._report(0.3, 0.7), m_v, m_t)
        flipped = kl_loss(self._report(0.7, 0.3), m_t, m_v)
        assert forward == flipped

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kl_loss(self._report(0.5, 0.1), np.ones((2, 2)) / 2, np.ones((3, 3)) / 3)


class TestTotalLoss:
    def test_beta_zero_sums_detector_losses(self):
        assert total_loss(1.0, 2.0, 3.0, 4.0, 99.0, 0.0) == 10.0

    def test_linearity_in_kl(self):
        assert total_loss(0, 0, 0, 0, 1.0, 2.0) == 2.0

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
    def test_ablation_grid_accepted(self, beta):
        assert total_loss(0.1, 0.2, 0.3, 0.4, 0.5, beta) == pytest.approx(
            1.0 + beta * 0.5
        )

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            total_loss(0, 0, 0, 0, 0, -1.0)
        for beta in (math.nan, math.inf):  # these used to give NaN and inf
            with pytest.raises(ValueError, match="beta must be finite and >= 0"):
                total_loss(0, 0, 0, 0, 0, beta)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            total_loss(float("nan"), 0, 0, 0, 0, 1.0)


class TestThermalPercentage:
    def _report(self, r_v, r_t):
        return ReliabilityReport(
            r_v=r_v,
            r_t=r_t,
            reference_modality="ir" if r_t > r_v else "vis",
            n_used=1,
        )

    def test_all_thermal(self):
        reports = [self._report(0.1, 0.9)] * 5
        assert thermal_reliability_percentage(reports) == 100.0

    def test_half_thermal_with_exclusions(self):
        reports = [
            self._report(0.1, 0.9),
            self._report(0.9, 0.1),
            None,
            self._report(0.2, 0.8),
            None,
            self._report(0.8, 0.2),
            None,
        ]
        assert thermal_reliability_percentage(reports) == 50.0

    def test_no_valid_instances(self):
        with pytest.raises(ValueError, match="no valid instances"):
            thermal_reliability_percentage([None, None])

    def test_complement_is_exact(self):
        rng = RNG(14)
        reports = [
            None if rng.uniform() < 0.3 else self._report(rng.uniform(), rng.uniform())
            for _ in range(50)
        ]
        if all(r is None for r in reports):
            reports.append(self._report(0.1, 0.9))
        thermal = thermal_reliability_percentage(reports)
        visible = 100.0 - thermal
        assert thermal + visible == 100.0


class TestAlignmentPipeline:
    def test_matches_straight_line_oracle(self):
        rng = RNG(15)
        gts = [BBox(8, 8, 28, 48), BBox(30, 20, 46, 60)]
        vis, ir = [], []
        for _ in range(12):
            x0, y0 = rng.uniform(0, 30, 2)
            w, h = rng.uniform(6, 30, 2)
            vis.append(det(BBox(x0, y0, x0 + w, y0 + h), float(rng.uniform(0, 1)), "vis"))
            x0, y0 = rng.uniform(0, 30, 2)
            w, h = rng.uniform(6, 30, 2)
            ir.append(det(BBox(x0, y0, x0 + w, y0 + h), float(rng.uniform(0, 1)), "ir"))
        vis_map = rng.uniform(0.1, 1.0, (3, 8, 16, 16))
        ir_map = rng.uniform(0.1, 1.0, (3, 8, 16, 16))
        report, loss = modality_alignment_loss(
            vis, ir, gts, vis_map, ir_map, n_top=10, stride=4.0
        )
        r_v, r_t, loss_ref = alignment_loss_ref(vis, ir, gts, vis_map, ir_map, 10, 4.0)
        assert report.r_v == pytest.approx(r_v, abs=1e-9)
        assert report.r_t == pytest.approx(r_t, abs=1e-9)
        assert loss == pytest.approx(loss_ref, abs=1e-6)
        assert report.n_used == 10

    def test_tables_give_the_same_result_as_lists(self):
        rng = RNG(16)
        gts = [BBox(8, 8, 28, 48), BBox(30, 20, 46, 60)]
        vis, ir = random_dets(rng, 12, "vis"), random_dets(rng, 12, "ir")
        maps = rng.uniform(0.1, 1.0, (2, 3, 16, 16)), rng.uniform(0.1, 1.0, (2, 3, 16, 16))
        tables = DetectionTable.from_detections(vis), DetectionTable.from_detections(ir)
        assert modality_alignment_loss(*tables, gts, *maps, n_top=7, stride=4.0) == (
            modality_alignment_loss(vis, ir, gts, *maps, n_top=7, stride=4.0)
        )
        assert reliability(*tables, gts, 5) == reliability(vis, ir, gts, 5)

    def test_reference_modality_empty_raises(self):
        gts = [BBox(0, 0, 10, 10)]
        with pytest.raises(ValueError, match="no reference detections"):
            modality_alignment_loss([], [], gts, np.ones((1, 1, 8, 8)), np.ones((1, 1, 8, 8)))

    @pytest.mark.parametrize("ir_shape", [(1, 4, 16, 16), (3, 2, 16, 16), (3, 4, 8, 8)])
    def test_feature_maps_of_two_shapes_rejected(self, ir_shape):
        # Both used to give a loss: RoIAlign pooled each map on its own.
        gts = [BBox(0, 0, 10, 10)]
        dets = [det(BBox(0, 0, 10, 10), 0.9)]
        vis_map, ir_map = np.ones((3, 4, 16, 16)), np.ones(ir_shape)
        message = re.escape(f"shape mismatch: vis (3, 4, 16, 16) vs ir {ir_shape}")
        with pytest.raises(ValueError, match=message):
            modality_alignment_loss(dets, dets, gts, vis_map, ir_map)

    @pytest.mark.parametrize("shape", [(1, 2, 0, 16), (0, 2, 16, 16)])
    def test_feature_maps_with_an_empty_axis_rejected_naming_the_shape(self, shape):
        gts = [BBox(0, 0, 10, 10)]
        dets = [det(BBox(0, 0, 10, 10), 0.9)]
        message = re.escape(f"vis feature map, vis reference boxes: feature map: ") + ".*" + (
            re.escape(f"got shape {shape}")
        )
        with pytest.raises(ValueError, match=message):
            modality_alignment_loss(dets, dets, gts, np.ones(shape), np.ones(shape))

    def test_zero_norm_feature_names_the_map_and_the_box(self):
        # The vis boxes match the ground truths exactly, so they are the
        # reference; the ir map is zero under the second of them.
        gts = [BBox(0, 0, 2, 2), BBox(5, 5, 7, 7)]
        vis = [det(gts[0], 0.9, "vis"), det(gts[1], 0.8, "vis")]
        ir = [det(BBox(0.5, 0.5, 2.5, 2.5), 0.9, "ir")]
        vis_map, ir_map = np.ones((1, 1, 8, 8)), np.ones((1, 1, 8, 8))
        ir_map[..., 4:, 4:] = 0.0
        message = "ir feature map, vis reference boxes: zero-norm RoI feature at index 1"
        with pytest.raises(ValueError, match=message):
            modality_alignment_loss(vis, ir, gts, vis_map, ir_map)

    @pytest.mark.parametrize("stride", [0.0, -8.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_stride_rejected(self, stride):
        # 0 used to raise ZeroDivisionError; nan and inf failed later on a
        # box or not at all.
        gts = [BBox(0, 0, 10, 10)]
        dets = [det(BBox(0, 0, 10, 10), 0.9)]
        maps = np.ones((1, 1, 8, 8))
        with pytest.raises(ValueError, match="stride"):
            modality_alignment_loss(dets, dets, gts, maps, maps, stride=stride)

    @pytest.mark.parametrize("reference", ["vis", "ir"])
    def test_scores_each_modality_once(self, monkeypatch, reference):
        calls = []

        def counting_scores(dets, gts):
            calls.append(len(dets))
            return best_ciou_scores(dets, gts)

        monkeypatch.setattr(balance_module, "best_ciou_scores", counting_scores)
        rng = RNG(16)
        gts = [BBox(8, 8, 28, 48)]
        exact = [det(BBox(8, 8, 28, 48), 0.9), det(BBox(9, 8, 29, 49), 0.8)]
        loose = random_dets(rng, 5, "vis")
        vis, ir = (exact, loose) if reference == "vis" else (loose, exact)
        vis_map = rng.uniform(0.1, 1.0, (2, 4, 16, 16))
        ir_map = rng.uniform(0.1, 1.0, (2, 4, 16, 16))
        report, loss = modality_alignment_loss(vis, ir, gts, vis_map, ir_map, n_top=2)
        r_v, r_t, loss_ref = alignment_loss_ref(vis, ir, gts, vis_map, ir_map, 2, 1.0)
        assert report.reference_modality == reference
        assert (report.r_v, report.r_t) == pytest.approx((r_v, r_t), abs=1e-9)
        assert loss == pytest.approx(loss_ref, abs=1e-6)
        assert calls == [len(vis), len(ir)]
