"""Smoke-size tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import generate  # noqa: E402
import spans  # noqa: E402
import msfusion  # noqa: E402
import msfusion.cli  # noqa: E402
from timing import StepTimer  # noqa: E402
from workloads import CrowdFrames, KaistCorpus, PyramidForward, run_cli  # noqa: E402


@pytest.fixture
def smoke_sizes(monkeypatch):
    monkeypatch.setattr(generate, "PYRAMID_SIDES", {"s80": 16, "s40": 8, "s20": 4})
    monkeypatch.setattr(generate, "KAIST", {**generate.KAIST, "groups": 4})
    monkeypatch.setattr(generate, "CROWD", {**generate.CROWD, "persons": 4, "candidates": 3,
                                            "false_pos": 5})


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic(tmp_path, smoke_sizes, workload):
    generate.generate(workload, 7, tmp_path / "a")
    generate.generate(workload, 7, tmp_path / "b")
    generate.generate(workload, 8, tmp_path / "c")
    first = _tree(tmp_path / "a")
    assert first and first == _tree(tmp_path / "b")
    assert first != _tree(tmp_path / "c")


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_of_nested_spans():
    tree = [
        _span("op", 0, 100, -1),
        _span("a", 10, 30, 0),
        _span("a.inner", 15, 20, 1),
        _span("b", 40, 90, 0),
        _span("b.x", 45, 60, 3),
        _span("b.y", 60, 70, 3),
    ]
    assert spans.self_times(tree) == [30, 15, 5, 25, 15, 10]
    # Nested spans partition the root: self times add up to its duration.
    assert sum(spans.self_times(tree)) == 100


def test_overlapping_children_count_once():
    tree = [_span("p", 0, 100, -1), _span("x", 10, 60, 0), _span("y", 40, 120, 0)]
    assert spans.self_times(tree)[0] == 10


def test_self_time_of_a_later_op_uses_full_record_indices():
    record = [_span("op1", 0, 10, -1), _span("op2", 20, 60, -1), _span("leaf", 30, 40, 1)]
    assert spans.self_times(record[1:], base=1) == [30, 10]


def test_op_summary_sums_inclusive_and_self_time_per_name():
    tree = [_span("outer", 0, 50, -1), _span("leaf", 5, 10, 0), _span("leaf", 20, 40, 0)]
    summary = spans.op_summary(tree)
    assert summary["outer"] == {"incl_ns": 50, "self_ns": 25, "calls": 1}
    assert summary["leaf"] == {"incl_ns": 25, "self_ns": 25, "calls": 2}


def _bindings():
    """Every attribute of every msfusion namespace, plus the patched classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "msfusion":
            out.update({(name, k): v for k, v in vars(module).items()})
    for cls in (msfusion.FusionWeights, msfusion.Manifest):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_recorder_restores_every_patched_attribute():
    before = _bindings()
    original = msfusion.cli.run_strategy
    load_records = vars(msfusion.Manifest)["load_records"]
    with spans.Recorder() as recorder:
        assert recorder.missing == []
        assert msfusion.cli.run_strategy is not original
        assert msfusion.run_strategy is msfusion.cli.run_strategy
        assert msfusion.postprocess.run_strategy is msfusion.cli.run_strategy
        assert vars(msfusion.Manifest)["load_records"] is not load_records
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_traced_ops_yield_every_layer_metric(tmp_path, smoke_sizes):
    files = generate.generate("crowd_frames", 3, tmp_path)
    workload = CrowdFrames(files, 3)
    with spans.Recorder() as recorder:
        recorder.op = 0
        workload.op(StepTimer())
    summary = spans.op_summary(recorder.spans)
    metrics = spans.layer_metrics(summary, 0)
    assert metrics["geometry.nms.calls"][0] > 0
    assert metrics["balance.roi_align.calls"][0] > 0
    assert metrics["cli.fuse.self_s"][0] > 0
    assert metrics["fusion.conv2d_same.calls"][0] == 0
    assert sum(spans.self_times(recorder.spans)) <= recorder.spans[-1][spans.END] - recorder.spans[0][spans.START]


@pytest.mark.parametrize("cls", (PyramidForward, KaistCorpus, CrowdFrames))
def test_smoke_op_passes_its_checks(tmp_path, monkeypatch, smoke_sizes, cls):
    import oracles
    import workloads

    monkeypatch.setattr(workloads, "SAMPLED_FRAMES", 4)
    workload = cls(generate.generate(cls.name, 5, tmp_path), 5)
    timer = StepTimer(calibrated=True)
    arrays = workload.op(timer)
    assert set(timer.steps) == set(cls.steps)
    assert 0 < timer.normalized and 0 < timer.total
    assert workload.nonfinite(arrays) == 0
    assert workload.check(oracles) == []


def test_failing_subcommand_raises(tmp_path):
    with pytest.raises(Exception, match="exited 1"):
        run_cli("fuse", "--detections", tmp_path / "missing.txt")


def test_step_timer_rescales_each_step_by_its_calibration(monkeypatch):
    import timing

    runs = iter([2.0, 2.0, 4.0])  # kernel times, as multiples of CAL_REF_S
    monkeypatch.setattr(timing, "calibrate", lambda: next(runs) * timing.CAL_REF_S)
    ticks = iter([0.0, 1.0, 10.0, 13.0])
    monkeypatch.setattr(timing, "clock", lambda: next(ticks))
    timer = timing.StepTimer(calibrated=True)
    with timer.step("a"):
        pass
    with timer.step("b"):
        pass
    assert dict(timer.steps) == {"a": 1.0, "b": 3.0}
    assert timer.total == 4.0
    # a ran at half speed (kernel 2x), b at a mean of 3x: 1/2 + 3/3.
    assert timer.normalized == 1.5
