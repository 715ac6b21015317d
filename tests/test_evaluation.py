"""Setting filters, greedy matching, and the log-average miss rate."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from msfusion import evaluation
from msfusion.evaluation import (
    FPPI_REFERENCE_POINTS,
    STANDARD_SETTINGS,
    SPLITS,
    FrameRecord,
    GroundTruthBox,
    GroundTruthTable,
    apply_setting,
    evaluate_matrix,
    log_average_miss_rate,
    match_frame,
    miss_rate_curve,
)
from msfusion.geometry import BBox, Detection, DetectionTable
from oracles import match_frame_ref, miss_rate_curve_ref

RNG = np.random.default_rng


def gt(x0, y0, x1, y1, occlusion="none", ignore=False):
    return GroundTruthBox(BBox(x0, y0, x1, y1), occlusion, ignore)


def det(x0, y0, x1, y1, score, frame="f0"):
    return Detection(BBox(x0, y0, x1, y1), score, "fused", "s80", frame)


class TestApplySetting:
    def test_reasonable_inclusion_rules(self):
        setting = STANDARD_SETTINGS["reasonable"]
        tall_clear = gt(0, 0, 30, 60)  # height 60, unoccluded
        short = gt(0, 0, 30, 50)  # height 50
        tall_heavy = gt(0, 0, 30, 80, occlusion="heavy")
        tall_partial = gt(0, 0, 30, 80, occlusion="partial")
        evaluated, ignored = apply_setting(
            [tall_clear, short, tall_heavy, tall_partial], setting
        )
        assert evaluated == [tall_clear, tall_partial]
        assert ignored == [short, tall_heavy]

    def test_boundary_height_55_is_excluded(self):
        evaluated, ignored = apply_setting(
            [gt(0, 0, 30, 55)], STANDARD_SETTINGS["reasonable"]
        )
        assert evaluated == [] and len(ignored) == 1

    def test_medium_boundaries_are_closed(self):
        setting = STANDARD_SETTINGS["medium"]
        low = gt(0, 0, 30, 45)
        high = gt(0, 0, 30, 115)
        evaluated, _ = apply_setting([low, high], setting)
        assert evaluated == [low, high]

    def test_near_and_far_boundaries_are_open(self):
        assert apply_setting([gt(0, 0, 30, 115)], STANDARD_SETTINGS["near"])[0] == []
        assert apply_setting([gt(0, 0, 30, 45)], STANDARD_SETTINGS["far"])[0] == []

    def test_ignore_flag_always_ignored(self):
        evaluated, ignored = apply_setting(
            [gt(0, 0, 30, 80, ignore=True)], STANDARD_SETTINGS["all"]
        )
        assert evaluated == [] and len(ignored) == 1

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"match_iou": float("nan")}, "match_iou"),
            ({"match_iou": 2.0}, "match_iou"),
            ({"min_height": float("nan")}, "min_height"),
            ({"max_height": float("nan")}, "max_height"),
            (
                {"allowed_occlusion": frozenset({"none", "nonee"})},
                r"unknown occlusion tiers \['nonee'\]",
            ),
        ],
        ids=["nan_iou", "iou_2", "nan_min_height", "nan_max_height", "unknown_tier"],
    )
    def test_setting_that_scores_nothing_rejected(self, changes, message):
        with pytest.raises(ValueError, match=f"setting 'bad': {message}"):
            evaluation.EvalSetting("bad", **changes)

    def test_partition_is_disjoint_and_complete(self):
        rng = RNG(1)
        gts = [
            gt(0, 0, 20, float(rng.uniform(20, 150)), occ, bool(rng.uniform() < 0.2))
            for occ in rng.choice(["none", "partial", "heavy"], size=30)
        ]
        for setting in STANDARD_SETTINGS.values():
            evaluated, ignored = apply_setting(gts, setting)
            assert len(evaluated) + len(ignored) == len(gts)
            assert not (set(map(id, evaluated)) & set(map(id, ignored)))

    def test_partition_reads_the_setting_mask_not_admits(self, monkeypatch):
        # One vectorized mask per call partitions the list; the scalar
        # admits stays as the reference the mask is tested against.
        gts = [gt(0, 0, 30, h, occ) for h in (40, 60, 90) for occ in ("none", "heavy")]
        calls = []
        admits = evaluation.EvalSetting.admits

        def counting(self, g):
            calls.append(g)
            return admits(self, g)

        monkeypatch.setattr(evaluation.EvalSetting, "admits", counting)
        evaluated, ignored = apply_setting(gts, STANDARD_SETTINGS["reasonable"])
        assert calls == []
        assert [len(evaluated), len(ignored)] == [2, 4]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GroundTruthBox(BBox(0, 0, 4, 8), "total"), "unknown occlusion 'total'"),
        (lambda: FrameRecord("f0", "dusk"), "unknown time_of_day 'dusk'"),
        (
            lambda: evaluation.EvalSetting("bad", min_height=50.0, max_height=50.0),
            "empty height window in setting 'bad'",
        ),
        (lambda: miss_rate_curve([], STANDARD_SETTINGS["all"]), "empty setting"),
        (
            lambda: log_average_miss_rate(
                GroundTruthTable.from_records([]), STANDARD_SETTINGS["all"], "det"
            ),
            "empty setting",
        ),
    ],
    ids=["occlusion", "time_of_day", "height_window", "no_frames", "no_frames_table"],
)
def test_invalid_input_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


class TestMatchFrame:
    def test_table_matches_like_a_list(self):
        rng = RNG(9)
        dets = [det(*rng.uniform(0, 20, 2).tolist(), 60, 120, s) for s in (0.5, 0.9, 0.5, 0.7)]
        evaluated, ignored = [gt(5, 5, 60, 120), gt(0, 0, 40, 100)], [gt(10, 0, 60, 110)]
        table = DetectionTable.from_detections(dets)
        assert match_frame(table, evaluated, ignored, 0.5) == match_frame(dets, evaluated, ignored, 0.5)

    def test_exact_hit(self):
        result = match_frame([det(0, 0, 30, 90, 0.9)], [gt(0, 0, 30, 90)], [], 0.5)
        assert (result.tp, result.fp, result.misses) == (1, 0, 0)

    def test_no_detections_all_missed(self):
        result = match_frame([], [gt(0, 0, 30, 90)], [], 0.5)
        assert (result.tp, result.fp, result.misses) == (0, 0, 1)

    def test_detection_on_ignored_gt_is_neutral(self):
        result = match_frame(
            [det(0, 0, 30, 90, 0.9)], [], [gt(0, 0, 30, 90, ignore=True)], 0.5
        )
        assert (result.tp, result.fp, result.misses) == (0, 0, 0)
        assert result.outcomes[0][1] == "ignored"

    def test_counts_identities(self):
        rng = RNG(2)
        for _ in range(30):
            dets = [
                det(x, y, x + w, y + h, round(float(rng.uniform(0, 1)), 3))
                for x, y, w, h in rng.uniform(0, 40, (6, 4)) + [0, 0, 5, 5]
            ]
            gts = [
                gt(x, y, x + w, y + h)
                for x, y, w, h in rng.uniform(0, 40, (4, 4)) + [0, 0, 5, 5]
            ]
            evaluated, ignored = gts[:3], gts[3:]
            result = match_frame(dets, evaluated, ignored, 0.5)
            assert result.tp + result.misses == len(evaluated)
            assert result.tp + result.fp <= len(dets)

    def test_matches_greedy_oracle(self):
        rng = RNG(3)
        for _ in range(50):
            dets = [
                det(x, y, x + w, y + h, round(float(rng.uniform(0, 1)), 3))
                for x, y, w, h in rng.uniform(0, 30, (6, 4)) + [0, 0, 8, 8]
            ]
            gts = [
                gt(x, y, x + w, y + h)
                for x, y, w, h in rng.uniform(0, 30, (4, 4)) + [0, 0, 8, 8]
            ]
            evaluated, ignored = gts[:3], gts[3:]
            result = match_frame(dets, evaluated, ignored, 0.4)
            want = match_frame_ref(dets, evaluated, ignored, 0.4)
            assert (result.tp, result.fp, result.misses) == want


    def test_equal_iou_goes_to_the_first_ground_truth(self):
        # The top detection has IoU 1/3 with both gts; taking gt 0 leaves
        # the second detection (IoU 1/2 with gt 0 only) a false positive.
        dets = [det(5, 0, 15, 10, 0.9), det(0, 0, 10, 5, 0.8)]
        evaluated = [gt(0, 0, 10, 10), gt(10, 0, 20, 10)]
        result = match_frame(dets, evaluated, [], 1.0 / 3.0)
        assert (result.tp, result.fp, result.misses) == (1, 1, 1)
        assert (result.tp, result.fp, result.misses) == match_frame_ref(
            dets, evaluated, [], 1.0 / 3.0
        )
        assert [flag for _, flag in result.outcomes] == ["tp", "fp"]


    @pytest.mark.parametrize("match_iou", [float("nan"), 2.0, -0.5])
    def test_match_iou_outside_the_unit_interval_rejected(self, match_iou):
        # NaN and 2.0 made an exact hit a false positive; -0.5 made any
        # pair a hit.
        with pytest.raises(ValueError, match=r"^match_iou must be in \[0, 1\], got"):
            match_frame([det(0, 0, 10, 10, 0.9)], [gt(0, 0, 10, 10)], [], match_iou)


class TestMissRateCurve:
    def _records(self, rng, n_frames):
        # Scores on a 0.1 grid, so many outcomes tie; some gts after the
        # first are ignore regions, so all three outcome flags occur.
        records = []
        for k in range(n_frames):
            gts = [
                gt(x, y, x + w, y + h, ignore=bool(i > 0 and rng.uniform() < 0.2))
                for i, (x, y, w, h) in enumerate(
                    rng.uniform(0, 60, (int(rng.integers(1, 5)), 4)) + [0, 0, 10, 10]
                )
            ]
            dets = [
                det(x, y, x + w, y + h, round(float(rng.uniform(0, 1)), 1), f"f{k}")
                for x, y, w, h in rng.uniform(0, 60, (int(rng.integers(0, 7)), 4)) + [0, 0, 10, 10]
            ]
            for g in gts[:2]:  # near-hits, so true positives occur
                x0, y0 = g.box.x_min + rng.uniform(-2, 2), g.box.y_min + rng.uniform(-2, 2)
                dets.append(det(x0, y0, x0 + g.box.width, y0 + g.box.height,
                                round(float(rng.uniform(0, 1)), 1), f"f{k}"))
            records.append(FrameRecord(f"f{k}", gts=gts, detections={"det": dets}))
        return records

    def test_matches_recounting_oracle_with_tied_scores(self):
        rng = RNG(31)
        setting = STANDARD_SETTINGS["all"]
        flags = set()
        for _ in range(20):
            records = self._records(rng, int(rng.integers(1, 6)))
            got = miss_rate_curve(records, setting, "det")
            assert got == miss_rate_curve_ref(records, setting, "det")
            for r in records:
                evaluated, ignored = apply_setting(r.gts, setting)
                result = match_frame(r.detections["det"], evaluated, ignored)
                flags |= {flag for _, flag in result.outcomes}
        assert flags == {"tp", "fp", "ignored"}


def _hand_corpus():
    """Three frames, six ground truths, hand-placed tps and fps.

    Sweep of the seven distinct scores gives the staircase
    fppi 0 -> miss 4/6, 1/3 -> 3/6, 2/3 -> 2/6, 1 -> 2/6.
    """
    g1 = (0.0, 0.0, 50.0, 100.0)
    g2 = (200.0, 0.0, 250.0, 100.0)
    far = (400.0, 0.0, 450.0, 100.0)
    frames = []
    # frame 1: both gts hit (0.9, 0.8), one fp (0.7)
    frames.append(
        FrameRecord(
            "f1",
            "day",
            gts=[gt(*g1), gt(*g2)],
            detections={
                "det": [
                    det(*g1, 0.9, "f1"),
                    det(*g2, 0.8, "f1"),
                    det(*far, 0.7, "f1"),
                ]
            },
        )
    )
    # frame 2: one tp (0.6), one fp (0.5), one miss
    frames.append(
        FrameRecord(
            "f2",
            "day",
            gts=[gt(*g1), gt(*g2)],
            detections={"det": [det(*g1, 0.6, "f2"), det(*far, 0.5, "f2")]},
        )
    )
    # frame 3: one tp (0.4), one fp (0.3), one miss
    frames.append(
        FrameRecord(
            "f3",
            "night",
            gts=[gt(*g1), gt(*g2)],
            detections={"det": [det(*g1, 0.4, "f3"), det(*far, 0.3, "f3")]},
        )
    )
    return frames


class TestLogAverageMissRate:
    def test_hand_computed_curve(self):
        records = _hand_corpus()
        curve = miss_rate_curve(records, STANDARD_SETTINGS["all"], "det")
        want_curve = [
            (0.0, 5 / 6),
            (0.0, 4 / 6),
            (1 / 3, 4 / 6),
            (1 / 3, 3 / 6),
            (2 / 3, 3 / 6),
            (2 / 3, 2 / 6),
            (1.0, 2 / 6),
        ]
        assert len(curve) == len(want_curve)
        for (fppi, miss), (wf, wm) in zip(curve, want_curve):
            assert fppi == pytest.approx(wf, abs=1e-12)
            assert miss == pytest.approx(wm, abs=1e-12)
        # seven reference points fall below fppi 1/3 (best miss there 4/6),
        # one picks up fppi 1/3 (3/6), the last picks fppi 1 (2/6)
        expected = 100.0 * math.exp(
            (7 * math.log(4 / 6) + math.log(3 / 6) + math.log(2 / 6)) / 9.0
        )
        got = log_average_miss_rate(records, STANDARD_SETTINGS["all"], "det")
        assert got == pytest.approx(expected, abs=1e-6)

    def test_perfect_detector_reports_exact_zero(self):
        g = (0.0, 0.0, 30.0, 90.0)
        records = [
            FrameRecord("f0", "day", gts=[gt(*g)], detections={"det": [det(*g, 0.9)]})
        ]
        assert log_average_miss_rate(records, STANDARD_SETTINGS["all"], "det") == 0.0

    def test_constant_miss_rate_is_scaled(self):
        # one of two gts found, no fps: miss rate 0.5 at every sample point
        g1 = (0.0, 0.0, 30.0, 90.0)
        g2 = (100.0, 0.0, 130.0, 90.0)
        records = [
            FrameRecord(
                "f0", "day", gts=[gt(*g1), gt(*g2)], detections={"det": [det(*g1, 0.9)]}
            )
        ]
        assert log_average_miss_rate(
            records, STANDARD_SETTINGS["all"], "det"
        ) == pytest.approx(50.0, abs=1e-9)

    def test_no_detections_gives_full_miss(self):
        records = [
            FrameRecord("f0", "day", gts=[gt(0, 0, 30, 90)], detections={"det": []})
        ]
        assert log_average_miss_rate(
            records, STANDARD_SETTINGS["all"], "det"
        ) == pytest.approx(100.0, abs=1e-9)

    def test_empty_setting_rejected(self):
        records = [FrameRecord("f0", "day", gts=[], detections={"det": []})]
        with pytest.raises(ValueError, match="empty setting"):
            log_average_miss_rate(records, STANDARD_SETTINGS["all"], "det")

    def test_removing_fp_never_increases_mr(self):
        records = _hand_corpus()
        base = log_average_miss_rate(records, STANDARD_SETTINGS["all"], "det")
        # drop the 0.7 false positive from frame 1
        records[0].detections["det"] = [
            d for d in records[0].detections["det"] if d.score != 0.7
        ]
        assert log_average_miss_rate(records, STANDARD_SETTINGS["all"], "det") <= base

    def test_removing_tp_never_decreases_mr(self):
        records = _hand_corpus()
        base = log_average_miss_rate(records, STANDARD_SETTINGS["all"], "det")
        records[0].detections["det"] = [
            d for d in records[0].detections["det"] if d.score != 0.9
        ]
        assert log_average_miss_rate(records, STANDARD_SETTINGS["all"], "det") >= base

    def test_mr_bounds(self):
        records = _hand_corpus()
        for setting in ("all", "reasonable"):
            mr = log_average_miss_rate(records, STANDARD_SETTINGS[setting], "det")
            assert 0.0 <= mr <= 100.0


class TestEvaluateMatrix:
    def test_day_only_corpus_marks_night_na(self):
        records = [r for r in _hand_corpus() if r.time_of_day == "day"]
        table = evaluate_matrix(
            records, ["det"], {"all": STANDARD_SETTINGS["all"]}
        )
        assert table[("all", "night", "det")] == (None, 0)
        assert table[("all", "day", "det")][0] is not None
        assert table[("all", "all", "det")] == table[("all", "day", "det")]

    def test_grid_matches_per_cell_recomputation(self):
        records = _hand_corpus()
        settings = {k: STANDARD_SETTINGS[k] for k in ("all", "reasonable", "heavy")}
        table = evaluate_matrix(records, ["det"], settings)

        def cell_oracle(setting, split):
            subset = [
                r for r in records if split == "all" or r.time_of_day == split
            ]
            total_gt = 0
            outcomes = []
            for r in subset:
                evaluated = [g for g in r.gts if setting.admits(g)]
                ignored = [g for g in r.gts if not setting.admits(g)]
                total_gt += len(evaluated)
                outcomes.append((r, evaluated, ignored))
            if total_gt == 0:
                return None, 0
            scores = sorted(
                {
                    d.score
                    for r in subset
                    for d in r.detections["det"]
                },
                reverse=True,
            )
            points = []
            for threshold in scores:
                tp = fp = 0
                for r, evaluated, ignored in outcomes:
                    kept = [d for d in r.detections["det"] if d.score >= threshold]
                    t, f, _ = match_frame_ref(kept, evaluated, ignored, 0.5)
                    tp += t
                    fp += f
                points.append((fp / len(subset), 1.0 - tp / total_gt))
            best = {}
            for fppi, miss in points:
                best[fppi] = min(miss, best.get(fppi, 1.0))
            stair = sorted(best.items())
            top = max(m for _, m in points) if points else 1.0
            sampled = []
            for ref in FPPI_REFERENCE_POINTS:
                ok = [m for f, m in stair if f <= ref]
                sampled.append(ok[-1] if ok else top)
            if all(m == 0.0 for m in sampled):
                return 0.0, total_gt
            return 100.0 * math.exp(
                sum(math.log(max(m, 1e-10)) for m in sampled) / len(sampled)
            ), total_gt

        for (setting_name, split, _), (mr, num_gt) in table.items():
            want_mr, want_gt = cell_oracle(settings[setting_name], split)
            assert num_gt == want_gt
            if want_mr is None:
                assert mr is None
            else:
                assert mr == pytest.approx(want_mr, abs=1e-9)

    def test_one_iou_pairs_call_per_setting_scores_each_frame_once(self, monkeypatch):
        # The day and night cells reuse the matches of the "all" pass: each
        # setting scores each same-frame (detection, ground truth) pair of
        # each strategy once, in one call per strategy.
        calls = []
        original = evaluation.iou_pairs

        def counting(a, b):
            calls.append(len(a))
            return original(a, b)

        monkeypatch.setattr(evaluation, "iou_pairs", counting)
        records = _hand_corpus()
        for r in records:
            r.detections["other"] = r.detections["det"][:1]
        settings = {k: STANDARD_SETTINGS[k] for k in ("all", "reasonable")}
        evaluate_matrix(records, ["det", "other"], settings)
        pairs = [sum(len(r.detections[s]) * len(r.gts) for r in records) for s in ("det", "other")]
        assert all(pairs) and calls == pairs * len(settings)

    def test_failing_cell_raises_instead_of_na(self):
        # Only a cell without evaluated ground truth is n/a; an ambiguous
        # detection source used to be swallowed into n/a as well.
        records = _hand_corpus()
        for r in records:
            r.detections["other"] = []
        with pytest.raises(ValueError, match="ambiguous detection source"):
            evaluate_matrix(records, [None], {"all": STANDARD_SETTINGS["all"]})

    def test_ambiguous_source_raises_without_evaluated_ground_truth(self):
        # Every record's detection source is resolved, so an ambiguous
        # source raises even when no cell would read its frames.
        records = [r for r in _hand_corpus() if r.time_of_day == "day"]
        for r in records:
            r.detections["other"] = []
        with pytest.raises(ValueError, match="ambiguous detection source"):
            evaluate_matrix(records, [None], {"heavy": STANDARD_SETTINGS["heavy"]}, ["night"])

    def test_split_rows_equal_those_of_the_full_grid(self):
        records = _hand_corpus()
        for r in records:
            r.detections["other"] = r.detections["det"][1:]
        settings = {k: STANDARD_SETTINGS[k] for k in ("all", "reasonable", "heavy")}
        full = evaluate_matrix(records, ["det", "other"], settings)
        for split in ("day", "night"):
            rows = evaluate_matrix(records, ["det", "other"], settings, [split])
            assert rows == {key: cell for key, cell in full.items() if key[1] == split}

    def test_one_split_matches_only_the_records_it_covers(self, monkeypatch):
        # A night-only grid matches the night frames alone, under every
        # strategy, and its cells equal those of the full grid.
        matched = []
        original = evaluation._match_frames

        def counting(det_frame, det_corners, det_scores, gt_frame, *rest):
            # f3 is record 2.
            matched.append((sorted(det_frame), sorted(gt_frame)))
            return original(det_frame, det_corners, det_scores, gt_frame, *rest)

        records = _hand_corpus()
        for r in records:
            r.detections["other"] = r.detections["det"][1:]
        settings = {k: STANDARD_SETTINGS[k] for k in ("all", "reasonable")}
        full = evaluate_matrix(records, ["det", "other"], settings)
        monkeypatch.setattr(evaluation, "_match_frames", counting)
        night = evaluate_matrix(records, ["det", "other"], settings, ["night"])
        assert night == {key: cell for key, cell in full.items() if key[1] == "night"}
        # One call per (setting, strategy): "det" has two night detections,
        # "other" one, and both meet the night frame's two ground truths.
        assert matched == [([2, 2], [2, 2]), ([2], [2, 2])] * len(settings)

    def test_unknown_split_rejected(self):
        # It matched no frame and returned every cell as (None, 0), n/a.
        message = re.escape(f"unknown split 'dusk', expected one of {SPLITS}")
        with pytest.raises(ValueError, match=message):
            evaluate_matrix(_hand_corpus(), ["det"], None, ["dusk"])

    def test_strategy_independence(self):
        records = _hand_corpus()
        for r in records:
            r.detections["other"] = [det(400, 0, 450, 100, 0.99, r.frame_id)]
        with_other = evaluate_matrix(records, ["det"], {"all": STANDARD_SETTINGS["all"]})
        for r in records:
            del r.detections["other"]
        without = evaluate_matrix(records, ["det"], {"all": STANDARD_SETTINGS["all"]})
        assert with_other == without


class TestDetectionSource:
    # Each record's detections score on the record's own frame, whatever
    # frame id they name, and source=None means the one source of the corpus.
    @staticmethod
    def _renamed(records, frame_id):
        for r in records:
            r.detections = {
                source: [replace(d, frame_id=frame_id) for d in dets]
                for source, dets in r.detections.items()
            }
        return records

    def test_record_detections_score_on_their_own_frame(self):
        # Every detection names frame f1; joined by id, all would score there.
        records, moved = _hand_corpus(), self._renamed(_hand_corpus(), "f1")
        setting = STANDARD_SETTINGS["all"]
        assert miss_rate_curve(moved, setting, "det") == miss_rate_curve(records, setting, "det")
        assert log_average_miss_rate(moved, setting, "det") == log_average_miss_rate(
            records, setting, "det"
        )
        assert evaluate_matrix(moved, ["det"]) == evaluate_matrix(records, ["det"])

    def test_records_carry_their_detections_into_the_table(self):
        records = self._renamed(_hand_corpus(), "elsewhere")
        table = GroundTruthTable.from_records(records)
        assert list(table.detections) == ["det"]
        got = table.detections["det"]
        assert [d.frame_id for d in got] == ["f1"] * 3 + ["f2"] * 2 + ["f3"] * 2
        assert [d.score for d in got] == [d.score for r in records for d in r.detections["det"]]

    def test_the_one_source_is_the_default(self):
        records = _hand_corpus()
        setting = STANDARD_SETTINGS["all"]
        table = GroundTruthTable.from_records(records)
        expected = log_average_miss_rate(records, setting, "det")
        assert log_average_miss_rate(records, setting) == expected
        assert log_average_miss_rate(table, setting) == expected
        by_name = evaluate_matrix(records, ["det"])
        assert evaluate_matrix(records, [None]) == {
            (name, split, None): cell for (name, split, _), cell in by_name.items()
        }

    def test_records_holding_different_sources_are_ambiguous(self):
        # Each record used to score its own one source silently.
        records = _hand_corpus()
        records[2].detections = {"other": records[2].detections["det"]}
        message = r"^ambiguous detection source, have \['det', 'other'\]$"
        with pytest.raises(ValueError, match=message):
            miss_rate_curve(records, STANDARD_SETTINGS["all"])
        with pytest.raises(ValueError, match=message):
            evaluate_matrix(records, [None])

    def test_a_record_without_detections_leaves_one_source(self):
        # It raised "frame f3: ambiguous detection source, have []".
        records, empty = _hand_corpus(), _hand_corpus()
        records[2].detections = {}
        empty[2].detections = {"det": []}
        setting = STANDARD_SETTINGS["all"]
        assert miss_rate_curve(records, setting) == miss_rate_curve(empty, setting, "det")


class TestGroundTruthTable:
    # _hand_corpus as a table: frames f1, f2, f3 holding two ground truths
    # each, so rows 0-5 lie in frames 0, 0, 1, 1, 2, 2.
    def _table(self):
        return GroundTruthTable.from_records(_hand_corpus())

    @pytest.mark.parametrize(
        "column, message",
        [
            ("frame", r"frame: expected 6 integer codes, got shape \(5,\)"),
            # The corners set the row count.
            ("corners", r"frame: expected 5 integer codes, got shape \(6,\)"),
            ("occlusion", r"occlusion: expected 6 integer codes, got shape \(5,\)"),
            ("ignore", r"ignore: expected 6 booleans, got shape \(5,\)"),
        ],
    )
    def test_column_lengths_must_agree(self, column, message):
        table = self._table()
        with pytest.raises(ValueError, match=message):
            replace(table, **{column: getattr(table, column)[:-1]})

    def test_times_of_day_must_list_every_frame(self):
        with pytest.raises(ValueError, match="3 frame ids but 2 times of day"):
            replace(self._table(), times_of_day=("day", "day"))

    def test_frame_index_beyond_the_frames_rejected(self):
        # It raised IndexError in evaluate_matrix.
        table = self._table()
        with pytest.raises(ValueError, match=r"frame: codes must lie in \[0, 3\)"):
            replace(table, frame=table.frame + 1)
        with pytest.raises(ValueError, match=r"frame: codes must lie in \[0, 1\)"):
            GroundTruthTable(("f0",), ("day",), np.array([1]), np.array([[0.0, 0, 10, 10]]),
                             np.array([0]), np.array([False]))

    def test_decreasing_frame_rejected(self):
        table = self._table()
        with pytest.raises(ValueError, match="frame must be non-decreasing"):
            replace(table, frame=table.frame[::-1].copy())

    def test_unknown_occlusion_code_rejected(self):
        # It raised IndexError in evaluate_matrix.
        table = self._table()
        occlusion = table.occlusion.copy()
        occlusion[3] = 5
        with pytest.raises(ValueError, match=r"occlusion: codes must lie in \[0, 3\)"):
            replace(table, occlusion=occlusion)

    def test_unknown_time_of_day_rejected(self):
        # It dropped the frame from both the day and the night rows.
        with pytest.raises(ValueError, match=r"unknown times of day \['dusk'\]"):
            replace(self._table(), times_of_day=("day", "dusk", "night"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_invalid_corners_name_the_row(self, value):
        # A NaN corner was silently a miss: a perfect detector scored 100%
        # MR under the "all" setting.
        table = self._table()
        corners = table.corners.copy()
        corners[4, 2] = value  # x_max
        with pytest.raises(ValueError, match="^row 4: invalid box corners"):
            replace(table, corners=corners)

    def test_ignore_flags_must_be_booleans(self):
        table = self._table()
        with pytest.raises(ValueError, match="ignore: expected 6 booleans, got shape"):
            replace(table, ignore=table.ignore.astype(np.intp))

    def test_repeated_frame_ids_rejected(self):
        # A detection joined the last frame of its id: two exact detections
        # of frames ("f1", "f1") scored 85.7% MR under "all" instead of 0.
        corners = np.array([[0.0, 0, 10, 10], [20.0, 0, 30, 10]])
        message = "frame ids must be unique, 'f1' repeats"
        with pytest.raises(ValueError, match=message):
            GroundTruthTable(("f1", "f1"), ("day", "day"), np.array([0, 1]), corners,
                             np.array([0, 0]), np.array([False, False]))
        records = _hand_corpus()
        records[1].frame_id = "f1"
        with pytest.raises(ValueError, match=message):
            evaluate_matrix(records, ["det"])
