"""Reliability scoring, RoIAlign, relation matrices, and KL losses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfusion import balance as balance_module
from msfusion.balance import (
    ReliabilityReport,
    RoiFeature,
    best_ciou_scores,
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
from msfusion.geometry import BBox, Detection, ciou
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

    def test_empty_ground_truth_raises(self):
        with pytest.raises(ValueError, match="no reference objects"):
            reliability([], [], [], n_top=1)

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


class TestRoiAlign:
    def test_constant_field(self):
        fmap = np.full((2, 3, 8, 8), 4.25)
        feature = roi_align(fmap, BBox(1.0, 1.5, 6.0, 7.0))
        np.testing.assert_allclose(feature.values, 4.25, atol=1e-12)
        assert feature.values.shape == (2 * 3 * 9,)

    def test_single_pixel_box_with_flat_neighborhood(self):
        # A unit box over one pixel samples inside that pixel's bilinear
        # neighborhood; making the neighborhood flat pins every bin to the
        # pixel's value and distinct values elsewhere check locality.
        fmap = RNG(3).uniform(10, 20, (1, 1, 8, 8))
        fmap[0, 0, 2:5, 3:6] = 7.5  # 3x3 flat neighborhood around pixel (3, 4)
        feature = roi_align(fmap, BBox(4.0, 3.0, 5.0, 4.0))
        np.testing.assert_allclose(feature.values, 7.5, atol=1e-12)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="positive area"):
            roi_align(np.zeros((1, 1, 8, 8)), BBox(2, 2, 2, 4))

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
            got = roi_align(fmap, box).values
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
            got = roi_align(fmap, box).values
            want = supersampled_roi(fmap, box)
            assert np.max(np.abs(got - want)) <= 0.15

    def test_linear_in_the_feature_map(self):
        rng = RNG(5)
        x = rng.standard_normal((2, 3, 8, 8))
        y = rng.standard_normal((2, 3, 8, 8))
        box = BBox(1.2, 0.8, 6.3, 6.9)
        lhs = roi_align(2.0 * x + 3.0 * y, box).values
        rhs = 2.0 * roi_align(x, box).values + 3.0 * roi_align(y, box).values
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
            single = roi_align(fmap, box, box_id=k)
            assert single.box_id == k
            np.testing.assert_array_equal(single.values, batch[k])

    def test_chunking_does_not_change_the_result(self, monkeypatch):
        rng = RNG(62)
        fmap = rng.standard_normal((2, 2, 8, 8))
        boxes = self._boxes(rng, 11, 8)
        whole = roi_align(fmap, boxes)
        monkeypatch.setattr(balance_module, "_ROI_CHUNK_VALUES", 1)  # one box per chunk
        np.testing.assert_array_equal(roi_align(fmap, boxes), whole)

    def test_degenerate_box_in_batch_rejected(self):
        with pytest.raises(ValueError, match="positive area"):
            roi_align(np.zeros((1, 1, 8, 8)), [BBox(0, 0, 2, 2), BBox(2, 2, 2, 4)])


class TestCosineMatrix:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        out = cosine_matrix([v, v])
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_orthogonal_vectors(self):
        out = cosine_matrix([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_matrix([np.zeros(3), np.ones(3)])

    def test_matches_dot_product_oracle(self):
        rng = RNG(6)
        vecs = [rng.standard_normal(12) for _ in range(5)]
        out = cosine_matrix([RoiFeature(values=v, box_id=i) for i, v in enumerate(vecs)])
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

    def test_reference_modality_empty_raises(self):
        gts = [BBox(0, 0, 10, 10)]
        with pytest.raises(ValueError, match="no reference detections"):
            modality_alignment_loss([], [], gts, np.ones((1, 1, 8, 8)), np.ones((1, 1, 8, 8)))

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
