"""Command-line workflows: fuse, eval, kl-loss, reliability, forward."""

import hashlib
import json
import struct

import numpy as np
import pytest

from msfusion.balance import (
    corpus_reliability,
    modality_alignment_loss,
    thermal_reliability_percentage,
)
from msfusion import cli
from msfusion.cli import main
from msfusion.containers import TENSORS_MAGIC, WEIGHTS_MAGIC, load_tensors, save_tensors
from msfusion.geometry import SCALES, BBox, Detection
from msfusion.evaluation import SPLITS, STANDARD_SETTINGS, evaluate_matrix
from msfusion.ingest import (
    attach_detections,
    format_results,
    ingest_detections,
    load_manifest,
    serialize_detections,
)


def write_annotation(path, lines):
    path.write_text("% bbGt version=3\n" + "".join(l + "\n" for l in lines), "utf-8")


def write_manifest(path, frames):
    payload = {"frames": frames}
    path.write_text(json.dumps(payload), "utf-8")


def header_keys(text):
    # The keys of a results or detections header, in order.
    return [line[2:].split(" = ")[0] for line in text.splitlines() if line.startswith("# ")]


@pytest.fixture
def corpus(tmp_path):
    """Perfect two-frame corpus: every gt matched by one exact detection."""
    ann = tmp_path / "ann"
    ann.mkdir()
    write_annotation(ann / "000001.txt", ["person 10 10 30 90 0"])
    write_annotation(ann / "000002.txt", ["person 50 20 30 90 0"])
    write_manifest(
        tmp_path / "manifest.json",
        [
            {"frame_id": "000001", "time_of_day": "day", "annotations": "ann/000001.txt"},
            {"frame_id": "000002", "time_of_day": "night", "annotations": "ann/000002.txt"},
        ],
    )
    dets = tmp_path / "dets.txt"
    dets.write_text(
        "000001 fused s80 10 10 40 100 0.9\n000002 fused s80 50 20 80 110 0.8\n",
        "utf-8",
    )
    return tmp_path


class TestEval:
    def test_perfect_corpus_reports_zero(self, corpus, capsys):
        out = corpus / "results.tsv"
        code = main(
            [
                "eval",
                "--detections",
                str(corpus / "dets.txt"),
                "--manifest",
                str(corpus / "manifest.json"),
                "--setting",
                "reasonable",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text("utf-8")
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert rows[0] == "setting\tsplit\tstrategy\tmr_percent\tnum_gt"
        assert "reasonable\tall\tdefault\t0.000000\t2" in rows
        assert "reasonable\tday\tdefault\t0.000000\t1" in rows

    def test_split_flag_limits_rows(self, corpus, capsys):
        code = main(
            [
                "eval",
                "--detections",
                str(corpus / "dets.txt"),
                "--manifest",
                str(corpus / "manifest.json"),
                "--setting",
                "all",
                "--split",
                "night",
            ]
        )
        assert code == 0
        rows = [
            l
            for l in capsys.readouterr().out.splitlines()
            if l and not l.startswith(("#", "setting"))
        ]
        assert len(rows) == 1 and rows[0].startswith("all\tnight")

    def test_header_echoes_config(self, corpus, capsys):
        cfg = corpus / "run.cfg"
        cfg.write_text("nms_thres = 0.37\n", "utf-8")
        code = main(
            [
                "eval",
                "--detections",
                str(corpus / "dets.txt"),
                "--manifest",
                str(corpus / "manifest.json"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # eval reads only ``settings``; the file's other keys are checked
        # but not echoed.
        assert "# nms_thres" not in out
        assert "# n_top" not in out
        assert "# settings = reasonable" in out

    def test_header_is_command_and_settings(self, corpus, capsys):
        code = main(
            [
                "eval",
                "--detections",
                str(corpus / "dets.txt"),
                "--manifest",
                str(corpus / "manifest.json"),
            ]
        )
        assert code == 0
        assert header_keys(capsys.readouterr().out) == ["command", "settings"]

    @pytest.mark.parametrize("line", ["settings =", "settings = ,"])
    def test_empty_settings_fail_naming_the_file(self, corpus, capsys, line):
        cfg = corpus / "run.cfg"
        cfg.write_text(line + "\n", "utf-8")
        code = main(
            [
                "eval",
                "--detections",
                str(corpus / "dets.txt"),
                "--manifest",
                str(corpus / "manifest.json"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: settings: expected at least one eval setting\n"

    @pytest.mark.parametrize("label", ["x\ty", "x\ny", "x\r\ny", "x\n"])
    def test_label_with_a_tab_or_line_break_fails_naming_it(self, corpus, capsys, label):
        # A tab in the label used to write rows of six fields.
        code = main(
            [
                "eval",
                "--detections",
                str(corpus / "dets.txt"),
                "--manifest",
                str(corpus / "manifest.json"),
                "--label",
                label,
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(label) in captured.err


class TestFuse:
    def _dets_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "f1 vis s80 0 0 10 10 0.8\nf1 ir s80 2 2 12 12 0.6\n", "utf-8"
        )
        return path

    def test_worked_example(self, tmp_path, capsys):
        out = tmp_path / "fused.txt"
        code = main(
            [
                "fuse",
                "--detections",
                str(self._dets_file(tmp_path)),
                "--strategy",
                "algo1",
                "--iou-thres",
                "0.4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        fused = ingest_detections(out)
        assert len(fused) == 1
        assert fused[0].modality == "fused"
        assert fused[0].score == pytest.approx(0.7)
        assert fused[0].box == BBox(0, 0, 12, 12)

    def test_non_finite_box_fails_naming_the_line(self, tmp_path, capsys):
        # An inf corner used to parse, give a NaN IoU and drop the pair.
        path = tmp_path / "d.txt"
        path.write_text("f1 vis s80 0 0 inf 10 0.9\nf1 ir s80 0 0 10 10 0.9\n", "utf-8")
        code = main(["fuse", "--detections", str(path), "--out", str(tmp_path / "o.txt")])
        assert code == 1
        assert f"{path}:1: invalid box corners" in capsys.readouterr().err

    def test_higher_threshold_fuses_nothing(self, tmp_path, capsys):
        out = tmp_path / "fused.txt"
        code = main(
            [
                "fuse",
                "--detections",
                str(self._dets_file(tmp_path)),
                "--strategy",
                "algo1",
                "--iou-thres",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert ingest_detections(out) == []

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iou_thres = 0.5\nstrategy = algo1\n", "utf-8")
        out = tmp_path / "fused.txt"
        code = main(
            [
                "fuse",
                "--detections",
                str(self._dets_file(tmp_path)),
                "--config",
                str(cfg),
                "--iou-thres",
                "0.4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(ingest_detections(out)) == 1  # flag 0.4 wins over file 0.5

    def test_header_echoes_the_postprocessing_keys(self, tmp_path, capsys):
        out = tmp_path / "fused.txt"
        code = main(["fuse", "--detections", str(self._dets_file(tmp_path)), "--out", str(out)])
        assert code == 0
        assert header_keys(out.read_text("utf-8")) == [
            "command",
            "conf_thres_v",
            "conf_thres_t",
            "iou_thres",
            "nms_thres",
            "strategy",
        ]

    def test_config_keys_of_other_subcommands_are_accepted_not_echoed(self, tmp_path, capsys):
        # One config file may serve every subcommand: fuse checks n_top and
        # stride_s80 but neither acts on nor echoes them.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_top = 5\nstride_s80 = 4.0\nnms_thres = 0.3\n", "utf-8")
        out = tmp_path / "fused.txt"
        code = main(
            [
                "fuse",
                "--detections",
                str(self._dets_file(tmp_path)),
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text("utf-8")
        assert "# nms_thres = 0.3\n" in text
        assert "n_top" not in text and "stride_s80" not in text

    def test_unknown_config_key_fails_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nms_thresh = 0.3\n", "utf-8")
        code = main(["fuse", "--detections", str(self._dets_file(tmp_path)), "--config", str(cfg)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: unknown config keys: ['nms_thresh']\n"

    def test_a_repeated_config_key_fails_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nms_thres = 0.3\nnms_thres = 0.4\n", "utf-8")
        code = main(["fuse", "--detections", str(self._dets_file(tmp_path)), "--config", str(cfg)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:2: key 'nms_thres' repeats line 1\n"

    def test_stdout_when_no_out(self, tmp_path, capsys):
        code = main(
            [
                "fuse",
                "--detections",
                str(self._dets_file(tmp_path)),
                "--strategy",
                "both",
            ]
        )
        assert code == 0
        assert "f1 vis s80" in capsys.readouterr().out


    def test_stays_columnar(self, tmp_path, monkeypatch):
        # One Detection object per input line would show up here: fuse may
        # build at most one per output row.
        rng = np.random.default_rng(4)
        lines = []
        for k in range(500):
            x0, y0 = rng.uniform(0, 500, 2).tolist()
            w, h = rng.uniform(10, 60, 2).tolist()
            for modality in ("vis", "ir"):
                dx, dy = rng.uniform(-2, 2, 2).tolist()
                lines.append(
                    f"{k % 25:06d} {modality} {SCALES[k % 3]} {x0 + dx!r} {y0 + dy!r} "
                    f"{x0 + w!r} {y0 + h!r} {float(rng.uniform(0.1, 1.0))!r}"
                )
        dets = tmp_path / "d.txt"
        dets.write_text("\n".join(lines) + "\n", "utf-8")
        built = []
        post_init = Detection.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Detection, "__post_init__", counting)
        out = tmp_path / "fused.txt"
        args = ["fuse", "--detections", str(dets), "--strategy", "algo1", "--out", str(out)]
        assert main(args) == 0
        monkeypatch.undo()
        n_out = len(ingest_detections(out))
        assert len(lines) == 1000 and n_out > 0
        assert len(built) <= n_out


class TestForwardPipeline:
    def test_gen_weights_then_forward_bit_deterministic(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        tensors = {
            "vis": rng.standard_normal((3, 8, 16, 16)),
            "ir": rng.standard_normal((3, 8, 16, 16)),
        }
        inp = tmp_path / "in.sftn"
        save_tensors(inp, tensors, TENSORS_MAGIC)
        outputs = []
        for run in ("a", "b"):
            weights = tmp_path / f"w_{run}.sfwt"
            out = tmp_path / f"out_{run}.sftn"
            assert main(["gen-weights", "--seed", "7", "--out", str(weights)]) == 0
            assert main(
                ["forward", "--weights", str(weights), "--input", str(inp), "--out", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert (tmp_path / "w_a.sfwt").read_bytes() == (tmp_path / "w_b.sfwt").read_bytes()
        fused = load_tensors(tmp_path / "out_a.sftn", TENSORS_MAGIC)
        assert fused["vis"].shape == (3, 8, 16, 16)
        assert fused["ir"].shape == (3, 8, 16, 16)

    @pytest.mark.parametrize(
        "flag, value", [("--channels", "0"), ("--frames", "-1"), ("--height", "-4")]
    )
    def test_gen_weights_rejects_sizes_below_one(self, tmp_path, capsys, flag, value):
        # --channels 0 used to write 41 tensors, some of them empty.
        weights = tmp_path / "w.sfwt"
        assert main(["gen-weights", flag, value, "--out", str(weights)]) == 1
        field = flag.removeprefix("--")
        assert capsys.readouterr().err == f"error: {field} must be >= 1, got {value}\n"
        assert not weights.exists()

    def test_forward_rejects_missing_tensor(self, tmp_path, capsys):
        weights = tmp_path / "w.sfwt"
        assert main(["gen-weights", "--out", str(weights)]) == 0
        bad = tmp_path / "bad.sftn"
        save_tensors(bad, {"vis": np.zeros((3, 8, 16, 16))}, TENSORS_MAGIC)
        code = main(
            ["forward", "--weights", str(weights), "--input", str(bad), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["vis", "ir"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_forward_rejects_non_finite_input(self, tmp_path, capsys, name, bad):
        weights = tmp_path / "w.sfwt"
        assert main(["gen-weights", "--out", str(weights)]) == 0
        tensors = {"vis": np.zeros((3, 8, 16, 16)), "ir": np.zeros((3, 8, 16, 16))}
        tensors[name][1, 2, 3, 4] = bad
        inp = tmp_path / "in.sftn"
        save_tensors(inp, tensors, TENSORS_MAGIC)
        out = tmp_path / "o.sftn"
        code = main(["forward", "--weights", str(weights), "--input", str(inp), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(inp) in err and repr(name) in err and "non-finite" in err
        assert not out.exists()

    def test_forward_names_the_input_whose_dims_overflow_int64(self, tmp_path, capsys):
        # (65536,) * 4 has 2**64 elements: numpy's int64 product wrapped to 0
        # and forward printed numpy's reshape error, naming no file.
        weights = tmp_path / "w.sfwt"
        assert main(["gen-weights", "--out", str(weights)]) == 0
        inp = tmp_path / "in.sftn"
        header = [TENSORS_MAGIC, struct.pack("<I", 1), struct.pack("<I", 3), b"vis"]
        header += [struct.pack("<I", d) for d in (4, 65536, 65536, 65536, 65536)]
        inp.write_bytes(b"".join(header))
        out = tmp_path / "o.sftn"
        code = main(["forward", "--weights", str(weights), "--input", str(inp), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {inp}: truncated payload for tensor 'vis'\n"
        assert not out.exists()

    def test_forward_rejects_non_finite_weights(self, tmp_path, capsys):
        # One NaN in mlp1_weight used to exit 0 with 6,144 non-finite outputs.
        weights = tmp_path / "w.sfwt"
        assert main(["gen-weights", "--seed", "3", "--out", str(weights)]) == 0
        tensors = load_tensors(weights, WEIGHTS_MAGIC)
        tensors["mlp1_weight"][0, 1] = np.nan
        save_tensors(weights, tensors, WEIGHTS_MAGIC)
        rng = np.random.default_rng(1)
        inp = tmp_path / "in.sftn"
        save_tensors(
            inp,
            {"vis": rng.standard_normal((3, 8, 16, 16)), "ir": rng.standard_normal((3, 8, 16, 16))},
            TENSORS_MAGIC,
        )
        out = tmp_path / "o.sftn"
        code = main(["forward", "--weights", str(weights), "--input", str(inp), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{weights}: tensor 'mlp1_weight' has non-finite values" in err
        assert not out.exists()

    @staticmethod
    def _forward_error(tmp_path, capsys, edit=None, shape=(3, 8, 16, 16)):
        # forward's stderr for default seeded weights, after ``edit`` of
        # their tensors, on zero maps of ``shape``.
        weights = tmp_path / "w.sfwt"
        assert main(["gen-weights", "--out", str(weights)]) == 0
        if edit is not None:
            tensors = load_tensors(weights, WEIGHTS_MAGIC)
            edit(tensors)
            save_tensors(weights, tensors, WEIGHTS_MAGIC)
        inp = tmp_path / "in.sftn"
        save_tensors(inp, {"vis": np.zeros(shape), "ir": np.zeros(shape)}, TENSORS_MAGIC)
        out = tmp_path / "o.sftn"
        code = main(["forward", "--weights", str(weights), "--input", str(inp), "--out", str(out)])
        assert code == 1 and not out.exists()
        return weights, inp, capsys.readouterr().err

    def test_weights_that_do_not_fit_themselves_name_the_weights(self, tmp_path, capsys):
        # This used to print the tensor's error alone, naming no file.
        def edit(tensors):
            tensors["mlp1_bias"] = np.zeros(9)

        weights, _, err = self._forward_error(tmp_path, capsys, edit)
        assert err == f"error: {weights}: mlp1_bias: expected shape ('c',) with {{'c': 8}}, got (9,)\n"

    def test_missing_patch_size_names_the_weights(self, tmp_path, capsys):
        weights, _, err = self._forward_error(tmp_path, capsys, lambda t: t.pop("patch_size"))
        assert err == f"error: {weights}: missing weight tensor 'patch_size'\n"

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((3, 8, 16, 8), "mlp2_weight: expected shape ('fp', 'fp') with {'fp': 24}, got (48, 48)"),
            ((3, 4, 16, 16), "dws_depth_vis: expected shape ('c', 'k_3', 'k_3') with {'c': 4}, got (8, 3, 3)"),
            ((3, 8, 16, 10), "patch_size 4 does not divide (16, 10)"),
        ],
        ids=["width", "channels", "patch"],
    )
    def test_an_input_size_the_weights_do_not_fit_names_both_files(
        self, tmp_path, capsys, shape, message
    ):
        weights, inp, err = self._forward_error(tmp_path, capsys, shape=shape)
        assert err == f"error: {weights} does not fit {inp}: {message}\n"

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--seed", "7"], "b6e20ebb34e22ba3180047feb1aa0b5a936874f42c628c8801d87c069efc5108"),
            (
                ["--seed", "3", "--frames", "2", "--channels", "4", "--height", "8", "--width", "8",
                 "--patch-size", "2", "--cascade-groups", "2"],
                "51e8851b47a231e76cc45ca03b51c3f3a985e61817d9b7b9ca47716772f7eb5e",
            ),
        ],
        ids=["default", "small"],
    )
    def test_gen_weights_bytes_are_pinned(self, tmp_path, capsys, flags, digest):
        # The seeded layout: schema rows drawn in order from one generator.
        # Any change to the order, the sizes or the draws changes the bytes.
        weights = tmp_path / "w.sfwt"
        assert main(["gen-weights", *flags, "--out", str(weights)]) == 0
        assert hashlib.sha256(weights.read_bytes()).hexdigest() == digest


class TestKlLoss:
    def test_matches_library_pipeline(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        features = tmp_path / "feat.sftn"
        vis_map = rng.uniform(0.1, 1.0, (2, 3, 16, 16))
        ir_map = rng.uniform(0.1, 1.0, (2, 3, 16, 16))
        save_tensors(features, {"vis": vis_map, "ir": ir_map}, TENSORS_MAGIC)
        dets = []
        for i in range(6):
            x0, y0 = rng.uniform(0, 60, 2)
            w, h = rng.uniform(20, 60, 2)
            dets.append(Detection(BBox(x0, y0, x0 + w, y0 + h), 0.5, "vis", "s80", "f1"))
            x0, y0 = rng.uniform(0, 60, 2)
            w, h = rng.uniform(20, 60, 2)
            dets.append(Detection(BBox(x0, y0, x0 + w, y0 + h), 0.5, "ir", "s80", "f1"))
        det_file = tmp_path / "dets.txt"
        det_file.write_text(serialize_detections(dets), "utf-8")
        ann = tmp_path / "f1.txt"
        write_annotation(ann, ["person 20 20 50 70 0"])
        out = tmp_path / "kl.txt"
        code = main(
            [
                "kl-loss",
                "--features",
                str(features),
                "--detections",
                str(det_file),
                "--annotations",
                str(ann),
                "--scale",
                "s80",
                "--n-top",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = dict(
            line.split(" = ") for line in out.read_text("utf-8").splitlines()
        )
        # stride for s80 defaults to 8; float32 container rounding shifts the
        # maps slightly, so compare against the pipeline on the stored maps
        stored = load_tensors(features, TENSORS_MAGIC)
        vis = [d for d in dets if d.modality == "vis"]
        ir = [d for d in dets if d.modality == "ir"]
        gts = [BBox(20, 20, 70, 90)]
        report, loss = modality_alignment_loss(
            vis, ir, gts, stored["vis"], stored["ir"], n_top=4, stride=8.0
        )
        assert float(text["r_v"]) == pytest.approx(report.r_v, abs=1e-9)
        assert float(text["r_t"]) == pytest.approx(report.r_t, abs=1e-9)
        assert float(text["kl_loss"]) == pytest.approx(loss, abs=1e-9)
        assert text["reference"] == report.reference_modality

    @pytest.mark.parametrize("stride", ["0", "-8", "nan", "inf"])
    def test_bad_stride_flag_fails_naming_stride(self, tmp_path, capsys, stride):
        # --stride 0 used to fail as "float division by zero".
        features = tmp_path / "feat.sftn"
        maps = {"vis": np.ones((1, 1, 8, 8)), "ir": np.ones((1, 1, 8, 8))}
        save_tensors(features, maps, TENSORS_MAGIC)
        det_file = tmp_path / "dets.txt"
        det_file.write_text("f1 vis s80 0 0 10 10 0.5\nf1 ir s80 0 0 10 10 0.5\n", "utf-8")
        ann = tmp_path / "f1.txt"
        write_annotation(ann, ["person 0 0 10 10 0"])
        args = ["kl-loss", "--features", str(features), "--detections", str(det_file)]
        code = main(args + ["--annotations", str(ann), "--stride", stride])
        assert code == 1
        err = capsys.readouterr().err
        assert "stride must be positive and finite" in err

    def test_ambiguous_frame_requires_flag(self, tmp_path, capsys):
        features = tmp_path / "feat.sftn"
        save_tensors(
            features,
            {"vis": np.ones((1, 1, 8, 8)), "ir": np.ones((1, 1, 8, 8))},
            TENSORS_MAGIC,
        )
        det_file = tmp_path / "dets.txt"
        det_file.write_text(
            "f1 vis s80 0 0 10 10 0.5\nf2 vis s80 0 0 10 10 0.5\n", "utf-8"
        )
        ann = tmp_path / "f1.txt"
        write_annotation(ann, ["person 0 0 10 10 0"])
        code = main(
            [
                "kl-loss",
                "--features",
                str(features),
                "--detections",
                str(det_file),
                "--annotations",
                str(ann),
            ]
        )
        assert code == 1
        assert "--frame-id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "frames, listed",
        [(["f1", "f2"], "2 frames (f1, f2)"),
         ([f"{2 * f:06d}" for f in range(600)], "600 frames (000000, 000002, 000004, ...)")],
        ids=["two", "600"],
    )
    def test_ambiguous_frame_message_counts_and_names_a_few(
        self, tmp_path, capsys, frames, listed
    ):
        # It used to list every frame id: about 6 KB of stderr for 600 frames.
        features = tmp_path / "feat.sftn"
        save_tensors(features, {"vis": np.ones((1, 1, 8, 8)), "ir": np.ones((1, 1, 8, 8))},
                     TENSORS_MAGIC)
        det_file = tmp_path / "dets.txt"
        det_file.write_text("".join(f"{f} vis s80 0 0 10 10 0.5\n" for f in frames), "utf-8")
        ann = tmp_path / "a.txt"
        write_annotation(ann, ["person 0 0 10 10 0"])
        args = ["kl-loss", "--features", str(features), "--detections", str(det_file)]
        assert main(args + ["--annotations", str(ann)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: detections cover {listed}; pass --frame-id to pick one\n"
        assert len(err) < 120

    @pytest.mark.parametrize("name", ["vis", "ir"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pixel", [(0, 0, 7, 7), (0, 0, 2, 2)], ids=["outside", "inside"])
    def test_non_finite_feature_map_fails_naming_file_and_tensor(
        self, tmp_path, capsys, name, bad, pixel
    ):
        # Pixel (7, 7) lies outside the RoI at stride 8 and used to pass
        # silently; pixel (2, 2) lies inside it and failed naming neither.
        features = tmp_path / "feat.sftn"
        maps = {"vis": np.ones((1, 1, 8, 8)), "ir": np.ones((1, 1, 8, 8))}
        maps[name][pixel] = bad
        save_tensors(features, maps, TENSORS_MAGIC)
        det_file = tmp_path / "dets.txt"
        det_file.write_text("f1 vis s80 8 8 24 40 0.9\nf1 ir s80 8 8 24 40 0.8\n", "utf-8")
        ann = tmp_path / "f1.txt"
        write_annotation(ann, ["person 8 8 16 32 0"])
        args = ["kl-loss", "--features", str(features), "--detections", str(det_file)]
        with np.errstate(all="raise"):
            code = main(args + ["--annotations", str(ann)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(features) in err and repr(name) in err and "non-finite" in err

    @pytest.mark.parametrize("ir_shape", [(1, 4, 16, 16), (3, 2, 16, 16)])
    def test_feature_maps_of_two_shapes_fail_naming_file(self, tmp_path, capsys, ir_shape):
        # Both used to exit 0 with a loss.
        features = tmp_path / "feat.sftn"
        maps = {"vis": np.ones((3, 4, 16, 16)), "ir": np.ones(ir_shape)}
        save_tensors(features, maps, TENSORS_MAGIC)
        det_file = tmp_path / "dets.txt"
        det_file.write_text("f1 vis s80 8 8 24 40 0.9\nf1 ir s80 8 8 24 40 0.8\n", "utf-8")
        ann = tmp_path / "f1.txt"
        write_annotation(ann, ["person 8 8 16 32 0"])
        args = ["kl-loss", "--features", str(features), "--detections", str(det_file)]
        assert main(args + ["--annotations", str(ann)]) == 1
        err = capsys.readouterr().err
        assert f"{features}: shape mismatch: vis (3, 4, 16, 16) vs ir {ir_shape}" in err

    @pytest.mark.parametrize("shape", [(1, 2, 0, 16), (0, 2, 16, 16), (1, 0, 16, 16)])
    def test_feature_maps_with_an_empty_axis_fail_naming_file_and_shape(
        self, tmp_path, capsys, shape
    ):
        # These used to print an IndexError or ZeroDivisionError message.
        features = tmp_path / "feat.sftn"
        save_tensors(features, {"vis": np.ones(shape), "ir": np.ones(shape)}, TENSORS_MAGIC)
        det_file = tmp_path / "dets.txt"
        det_file.write_text("f1 vis s80 8 8 24 40 0.9\nf1 ir s80 8 8 24 40 0.8\n", "utf-8")
        ann = tmp_path / "f1.txt"
        write_annotation(ann, ["person 8 8 16 32 0"])
        args = ["kl-loss", "--features", str(features), "--detections", str(det_file)]
        assert main(args + ["--annotations", str(ann)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {features}: ") and f"got shape {shape}" in err

    @pytest.mark.parametrize("side", ["detection", "ground truth"])
    def test_degenerate_box_names_its_file_frame_scale_and_corners(self, tmp_path, capsys, side):
        # Both used to print only "degenerate aspect ratio".
        features = tmp_path / "feat.sftn"
        save_tensors(features, {"vis": np.ones((1, 1, 8, 8)), "ir": np.ones((1, 1, 8, 8))},
                     TENSORS_MAGIC)
        det_file = tmp_path / "dets.txt"
        lines = ["f1 vis s40 10 10 40 100 0.9", "f1 ir s40 50 10 50 50 0.8"]
        ann = tmp_path / "f1.txt"
        gts = ["person 10 10 30 90 0", "person 50 10 0 40 0"]
        if side == "detection":
            det_file.write_text("\n".join(lines) + "\n", "utf-8")
            write_annotation(ann, gts[:1])
            expected = f"{det_file}: degenerate aspect ratio: ir detection"
        else:
            det_file.write_text(lines[0] + "\n", "utf-8")
            write_annotation(ann, gts)
            expected = f"{ann}: degenerate aspect ratio: ground truth"
        args = ["kl-loss", "--features", str(features), "--detections", str(det_file)]
        assert main(args + ["--annotations", str(ann), "--scale", "s40"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {expected} (50.0, 10.0, 50.0, 50.0) of frame 'f1' at scale s40\n"

    def test_all_ignored_ground_truths_name_the_annotations_frame_and_scale(
        self, tmp_path, capsys
    ):
        # This used to print only "no reference objects".
        features = tmp_path / "feat.sftn"
        save_tensors(features, {"vis": np.ones((1, 1, 8, 8)), "ir": np.ones((1, 1, 8, 8))},
                     TENSORS_MAGIC)
        det_file = tmp_path / "dets.txt"
        det_file.write_text("f1 vis s80 8 8 24 40 0.9\n", "utf-8")
        ann = tmp_path / "f1.txt"
        write_annotation(ann, ["people 8 8 16 32 0"])
        args = ["kl-loss", "--features", str(features), "--detections", str(det_file)]
        assert main(args + ["--annotations", str(ann)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ann}: no reference objects")
        assert "frame 'f1' at scale s80" in err

    @pytest.mark.parametrize(
        "flags, frame, scale",
        [(["--frame-id", "nope"], "nope", "s80"), (["--scale", "s40"], "f1", "s40")],
        ids=["frame", "scale"],
    )
    def test_no_rows_for_frame_and_scale_names_them_and_the_dump(
        self, tmp_path, capsys, flags, frame, scale
    ):
        features = tmp_path / "feat.sftn"
        save_tensors(features, {"vis": np.ones((1, 1, 8, 8)), "ir": np.ones((1, 1, 8, 8))},
                     TENSORS_MAGIC)
        det_file = tmp_path / "dets.txt"
        det_file.write_text("f1 vis s80 8 8 24 40 0.9\nf1 ir s80 8 8 24 40 0.8\n", "utf-8")
        ann = tmp_path / "f1.txt"
        write_annotation(ann, ["person 8 8 16 32 0"])
        args = ["kl-loss", "--features", str(features), "--detections", str(det_file)]
        assert main(args + ["--annotations", str(ann), *flags]) == 1
        err = capsys.readouterr().err
        assert "no reference detections" in err
        assert str(det_file) in err and repr(frame) in err and f"scale {scale}" in err

    @staticmethod
    def _kl_loss_error(tmp_path, capsys, vis_map, dets):
        features = tmp_path / "feat.sftn"
        save_tensors(features, {"vis": vis_map, "ir": np.ones((1, 1, 8, 8))}, TENSORS_MAGIC)
        det_file = tmp_path / "dets.txt"
        det_file.write_text("".join(line + "\n" for line in dets), "utf-8")
        ann = tmp_path / "f1.txt"
        write_annotation(ann, ["person 8 8 16 32 0"])
        args = ["kl-loss", "--features", str(features), "--detections", str(det_file)]
        assert main(args + ["--annotations", str(ann)]) == 1
        return features, det_file, capsys.readouterr().err

    def test_reference_modality_without_rows_names_the_dump_frame_and_scale(
        self, tmp_path, capsys
    ):
        # One far ir box scores r_t < 0 = r_v, so vis is the reference and
        # has no row. This used to print the library's error, naming no file.
        _, det_file, err = self._kl_loss_error(
            tmp_path, capsys, np.ones((1, 1, 8, 8)), ["f1 ir s80 200 200 230 260 0.9"]
        )
        assert err == (
            f"error: {det_file}: no reference detections: no vis detection to pool, "
            "for frame 'f1' at scale s80\n"
        )

    def test_feature_map_failure_names_the_features_file(self, tmp_path, capsys):
        # An all-zero vis map pools a zero-norm RoI feature; this used to
        # print the library's error, naming no file.
        features, _, err = self._kl_loss_error(
            tmp_path, capsys, np.zeros((1, 1, 8, 8)), ["f1 vis s80 8 8 24 40 0.9"]
        )
        assert err == (
            f"error: {features}: vis feature map, vis reference boxes: zero-norm RoI feature "
            "at index 0, for frame 'f1' at scale s80\n"
        )

    def test_missing_feature_tensor_names_file_and_tensor(self, tmp_path, capsys):
        features = tmp_path / "feat.sftn"
        save_tensors(features, {"vis": np.ones((1, 1, 8, 8))}, TENSORS_MAGIC)
        args = ["kl-loss", "--features", str(features), "--detections", str(tmp_path / "d.txt")]
        assert main(args + ["--annotations", str(tmp_path / "a.txt")]) == 1
        assert f"{features}: missing tensor 'ir'" in capsys.readouterr().err


class TestReliabilityCommand:
    def test_percentage_over_corpus(self, corpus, capsys):
        # thermal boxes sit closer to the gt than the visible ones in each
        # frame, so thermal wins every valid instance
        dets = corpus / "rel_dets.txt"
        dets.write_text(
            "000001 vis s80 12 12 40 95 0.9\n000001 ir s80 10 10 40 100 0.9\n"
            "000002 vis s80 55 25 80 105 0.9\n000002 ir s80 50 20 80 110 0.9\n",
            "utf-8",
        )
        code = main(
            [
                "reliability",
                "--detections",
                str(dets),
                "--manifest",
                str(corpus / "manifest.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "thermal reliability: 100.00%" in out
        assert "2 valid instances" in out

    def test_no_valid_instances_errors(self, corpus, capsys):
        dets = corpus / "rel_dets.txt"
        dets.write_text("000001 vis s80 400 400 410 410 0.9\n", "utf-8")
        code = main(
            [
                "reliability",
                "--detections",
                str(dets),
                "--manifest",
                str(corpus / "manifest.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "no valid instances" in err
        assert str(dets) in err and str(corpus / "manifest.json") in err

    # Edge cases of the corpus scan: instances are (manifest frame, scale)
    # pairs in manifest order, and only instances whose detections overlap a
    # non-ignored ground truth are scored.

    def _run(self, corpus, capsys, lines, frames=None):
        if frames is not None:
            write_manifest(corpus / "manifest.json", frames)
        dets = corpus / "rel_dets.txt"
        dets.write_text("".join(line + "\n" for line in lines), "utf-8")
        out = corpus / "rel.tsv"
        args = ["reliability", "--detections", str(dets), "--manifest", str(corpus / "manifest.json")]
        code = main(args + ["--out", str(out)])
        rows = out.read_text("utf-8").splitlines() if code == 0 else []
        return code, [r.split("\t")[:2] for r in rows if not r.startswith("#")], capsys.readouterr()

    def test_zero_width_detection_in_unscored_instance_is_skipped(self, corpus, capsys):
        code, rows, _ = self._run(
            corpus, capsys,
            ["000001 vis s80 12 12 40 95 0.9", "000001 vis s40 200 200 200 240 0.9"],
        )
        assert code == 0
        assert rows == [["000001", "s80"]]

    def test_zero_width_detection_in_scored_instance_fails(self, corpus, capsys):
        code, _, captured = self._run(
            corpus, capsys,
            ["000001 vis s80 12 12 40 95 0.9", "000001 ir s80 200 200 200 240 0.9"],
        )
        assert code == 1
        assert captured.err == (
            f"error: {corpus / 'rel_dets.txt'}: degenerate aspect ratio: ir detection "
            "(200.0, 200.0, 200.0, 240.0) of frame '000001' at scale s80\n"
        )

    def test_zero_width_ground_truth_in_scored_instance_fails_naming_its_file(
        self, corpus, capsys
    ):
        # This used to print only "degenerate aspect ratio".
        ann = corpus / "ann" / "000001.txt"
        write_annotation(ann, ["person 10 10 30 90 0", "person 50 10 0 40 0"])
        code, _, captured = self._run(corpus, capsys, ["000001 vis s80 12 12 40 95 0.9"])
        assert code == 1
        assert captured.err == (
            f"error: {ann}: degenerate aspect ratio: ground truth (50.0, 10.0, 50.0, 50.0) "
            "of frame '000001' at scale s80\n"
        )

    def test_parse_and_degenerate_box_errors_name_one_annotation_path(self, tmp_path, capsys):
        # The reader joined "./sub//a.txt" to the manifest's folder as written
        # and the degenerate-box error through pathlib, which normalises it:
        # two names for one file.
        data = tmp_path / "data"
        (data / "sub").mkdir(parents=True)
        frames = [{"frame_id": "a", "annotations": "./sub//a.txt"}]
        write_manifest(data / "m.json", frames)
        dets = tmp_path / "dets.txt"
        dets.write_text("a vis s80 12 12 40 95 0.9\n", "utf-8")
        args = ["reliability", "--detections", str(dets), "--manifest", str(data / "m.json")]
        named = []
        for lines in (["person 10 10 thirty 90 0"], ["person 10 10 30 90 0", "person 50 10 0 40 0"]):
            write_annotation(data / "sub" / "a.txt", lines)
            assert main(args) == 1
            err = capsys.readouterr().err
            named.append(err.removeprefix("error: ").split(":")[0])
        assert named[0] == named[1] == f"{data}/./sub//a.txt"

    def test_frames_absent_from_the_manifest_are_ignored(self, corpus, capsys):
        base = ["000001 vis s80 12 12 40 95 0.9", "000001 ir s80 10 10 40 100 0.8"]
        code, rows, _ = self._run(corpus, capsys, base)
        expected = (corpus / "rel.tsv").read_text("utf-8")
        stray = ["999999 vis s80 10 10 40 100 0.9", "000000 ir s40 10 10 40 100 0.9"]
        code_stray, rows_stray, _ = self._run(corpus, capsys, stray + base + stray)
        assert code == code_stray == 0 and rows == rows_stray == [["000001", "s80"]]
        assert (corpus / "rel.tsv").read_text("utf-8") == expected

    def test_all_ignored_ground_truths_yield_no_row(self, corpus, capsys):
        write_annotation(corpus / "ann" / "000002.txt", ["people 50 20 30 90 0"])
        code, rows, captured = self._run(
            corpus, capsys,
            ["000001 vis s80 12 12 40 95 0.9", "000002 vis s80 50 20 80 110 0.9"],
        )
        assert code == 0
        assert rows == [["000001", "s80"]]
        assert "1 valid instances" in captured.out

    def test_rows_follow_manifest_order(self, corpus, capsys):
        frames = [
            {"frame_id": "000002", "time_of_day": "night", "annotations": "ann/000002.txt"},
            {"frame_id": "000001", "time_of_day": "day", "annotations": "ann/000001.txt"},
        ]
        code, rows, _ = self._run(
            corpus, capsys,
            ["000001 vis s20 12 12 40 95 0.9", "000001 ir s80 10 10 40 100 0.9",
             "000002 vis s40 55 25 80 105 0.9"],
            frames,
        )
        assert code == 0
        assert rows == [["000002", "s40"], ["000001", "s80"], ["000001", "s20"]]


def _multi_frame_dump(path, frames=12, per_frame=14, seed=8):
    # Overlapping boxes in every frame, modality and scale: NMS keeps a few
    # per frame and suppresses the rest.
    rng = np.random.default_rng(seed)
    lines = []
    for f in range(frames):
        for modality in ("vis", "ir"):
            for scale in SCALES:
                for _ in range(per_frame):
                    x0, y0 = rng.uniform(0, 80, 2).tolist()
                    w, h = rng.uniform(15, 40, 2).tolist()
                    score = float(rng.uniform(0.1, 1.0))
                    lines.append(f"{f:06d} {modality} {scale} {x0!r} {y0!r} "
                                 f"{x0 + w!r} {y0 + h!r} {score!r}")
    path.write_text("\n".join(lines) + "\n", "utf-8")


class TestKernelCalls:
    """The per-corpus workflows run their pair kernels once per corpus (or
    once per NMS round), not once per frame."""

    def test_reliability_scores_the_corpus_with_one_ciou_call(self, tmp_path, monkeypatch):
        from msfusion import balance, geometry

        # ciou_pairs is the one CIoU array kernel: reliability scores the
        # corpus with one call, and kl-loss one instance with one call per
        # modality.
        assert not hasattr(geometry, "ciou_matrix") and not hasattr(balance, "ciou_matrix")
        dets = tmp_path / "dets.txt"
        _multi_frame_dump(dets)
        (tmp_path / "ann").mkdir()
        frames = []
        for f in range(12):
            write_annotation(tmp_path / "ann" / f"{f:06d}.txt",
                             ["person 20 20 30 40 0", "person 60 30 25 45 0"])
            frames.append({"frame_id": f"{f:06d}", "time_of_day": "day",
                           "annotations": f"ann/{f:06d}.txt"})
        write_manifest(tmp_path / "manifest.json", frames)
        calls = []
        original = balance.ciou_pairs

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(balance, "ciou_pairs", counting)
        out = tmp_path / "rel.tsv"
        args = ["reliability", "--detections", str(dets), "--manifest", str(tmp_path / "manifest.json")]
        assert main(args + ["--out", str(out)]) == 0
        rows = [l for l in out.read_text("utf-8").splitlines() if not l.startswith("#")]
        assert len(rows) == 12 * len(SCALES)
        assert len(calls) == 1
        features = tmp_path / "feat.sftn"
        maps = np.random.default_rng(9).uniform(0.1, 1.0, (2, 1, 2, 16, 16))
        save_tensors(features, {"vis": maps[0], "ir": maps[1]}, TENSORS_MAGIC)
        args = ["kl-loss", "--features", str(features), "--detections", str(dets)]
        args += ["--annotations", str(tmp_path / "ann" / "000003.txt"), "--frame-id", "000003"]
        assert main(args + ["--out", str(tmp_path / "kl.txt")]) == 0
        assert calls[1:] == [14, 14]

    def test_nms_runs_one_iou_call_per_round_across_frames(self, tmp_path, monkeypatch):
        from msfusion import geometry

        dets = tmp_path / "dets.txt"
        _multi_frame_dump(dets)
        calls = []
        original = geometry.iou_pairs

        def counting(a, b):
            calls.append(a.shape)
            return original(a, b)

        monkeypatch.setattr(geometry, "iou_pairs", counting)
        out = tmp_path / "kept.txt"
        assert main(["fuse", "--detections", str(dets), "--strategy", "vis", "--out", str(out)]) == 0
        monkeypatch.undo()
        kept = [frame for frame, _ in ingest_detections(out).by_frame()]
        per_frame = [len(ingest_detections(out).subset(frame_id=f)) for f in kept]
        assert len(per_frame) == 12 and min(per_frame) > 1
        assert max(per_frame) - 1 <= len(calls) <= max(per_frame) < sum(per_frame)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuse", "--detections", "x", "--frobnicate"])
        assert exc.value.code == 2

    # eval runs no post-processing and no reliability scoring, and fuse no
    # reliability scoring: these flags only reached the results header.
    @pytest.mark.parametrize(
        "argv",
        [
            ["fuse", "--detections", "x", "--beta", "2.0"],
            ["eval", "--detections", "x", "--manifest", "m", "--nms-thres", "0.3"],
            ["fuse", "--detections", "x", "--n-top", "5"],
            ["eval", "--detections", "x", "--manifest", "m", "--strategy", "vis"],
            ["eval", "--detections", "x", "--manifest", "m", "--iou-thres", "0.5"],
            ["eval", "--detections", "x", "--manifest", "m", "--conf-thres-v", "0.2"],
            ["eval", "--detections", "x", "--manifest", "m", "--conf-thres-t", "0.2"],
            ["eval", "--detections", "x", "--manifest", "m", "--n-top", "5"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_removed_beta_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "line, key", [("n_top = 3.5", "n_top"), ("stride_s80 = nan", "stride_s80")]
    )
    def test_bad_config_value_names_file_and_key(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", "utf-8")
        code = main(["fuse", "--detections", "x", "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {key}")

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["fuse", "--detections", str(tmp_path / "absent.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_a_bug_inside_a_subcommand_propagates(self, tmp_path, monkeypatch, capsys):
        # Input errors are ValueError or OSError; anything else is a bug and
        # keeps its traceback rather than becoming a one-line "error:".
        def broken(*args, **kwargs):
            raise KeyError("x")

        monkeypatch.setattr(cli, "ingest_detections", broken)
        with pytest.raises(KeyError, match="x"):
            main(["fuse", "--detections", str(tmp_path / "d.txt")])
        assert capsys.readouterr().err == ""

    # One byte that is not UTF-8 in each kind of text input: the error names
    # the file and the line holding it.
    @pytest.mark.parametrize("target", ["annotation", "detections", "manifest", "config"])
    def test_invalid_utf8_names_the_file_and_line(self, corpus, capsys, target):
        files = {
            "annotation": corpus / "ann" / "000002.txt",
            "detections": corpus / "dets.txt",
            "manifest": corpus / "manifest.json",
            "config": corpus / "run.cfg",
        }
        files["config"].write_text("# eval settings\nsettings = all\n", "utf-8")
        manifest = json.loads(files["manifest"].read_text("utf-8"))
        files["manifest"].write_text(json.dumps(manifest, indent=1), "utf-8")
        path = files[target]
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
        path.write_bytes(b"\n".join(lines))
        code = main(["eval", "--detections", str(files["detections"]),
                     "--manifest", str(files["manifest"]), "--config", str(files["config"])])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: invalid UTF-8"), err


def _generated_corpus(root, frames=18, seed=5):
    # bbGt files with every occlusion code, ignore labels and heights around
    # the setting bounds, and a dump of vis and ir detections near them plus
    # false positives, some on a frame the manifest does not list.
    rng = np.random.default_rng(seed)
    (root / "ann").mkdir()
    entries, lines = [], []
    for k in range(frames):
        frame_id = f"{2 * k:06d}"
        rows, boxes = [], []
        for _ in range(int(rng.integers(0, 6))):
            x, y = rng.uniform(0, 500, 2).round(2).tolist()
            h = float(rng.choice([45.0, 55.0, 115.0, round(rng.uniform(20, 200), 2)]))
            w = round(h * 0.41, 2)
            label = "people" if rng.random() < 0.15 else "person"
            rows.append(f"{label} {x} {y} {w} {h} {int(rng.integers(0, 3))} 0 0 0 0 0 0")
            boxes.append((x, y, x + w, y + h))
        write_annotation(root / "ann" / f"{frame_id}.txt", rows)
        entries.append({"frame_id": frame_id, "time_of_day": ("day", "night")[k % 3 == 2],
                        "annotations": f"ann/{frame_id}.txt"})
        for modality in ("vis", "ir"):
            for scale in SCALES:
                for x0, y0, x1, y1 in boxes + [(600, 10, 630, 80)]:
                    dx, dy = rng.normal(0, 3, 2)
                    lines.append(f"{frame_id} {modality} {scale} {x0 + dx:.2f} {y0 + dy:.2f} "
                                 f"{x1 + dx:.2f} {y1 + dy:.2f} {rng.uniform(0, 1):.4f}")
    lines.append("999999 ir s80 0 0 10 20 0.5")
    write_manifest(root / "manifest.json", entries)
    (root / "dets.txt").write_text("\n".join(lines) + "\n", "utf-8")
    return root / "dets.txt", root / "manifest.json"


class TestCommandsMatchTheListApi:
    # eval and reliability read the corpus as columns; the list API reads
    # it as FrameRecord lists. Both must give the same bytes.

    @pytest.mark.parametrize(
        "flags",
        [[], ["--setting", "reasonable", "--setting", "all"],
         ["--setting", "heavy", "--split", "night"],
         ["--setting", "near", "--setting", "medium", "--setting", "far", "--split", "day"]],
    )
    def test_eval(self, tmp_path, capsys, flags):
        dets, manifest = _generated_corpus(tmp_path)
        out = tmp_path / "eval.tsv"
        assert main(["eval", "--detections", str(dets), "--manifest", str(manifest),
                     *flags, "--out", str(out)]) == 0
        records = attach_detections(
            load_manifest(manifest).load_records(), ingest_detections(dets), "default"
        )
        names = flags[1::2] if "--split" not in flags else flags[1:-2:2]
        settings = {name: STANDARD_SETTINGS[name] for name in names or ["reasonable"]}
        splits = [flags[-1]] if "--split" in flags else list(SPLITS)
        table = evaluate_matrix(records, ["default"], settings, splits)
        body = format_results([(*key, *cell) for key, cell in table.items()], {})
        lines = out.read_text("utf-8").splitlines(keepends=True)
        assert "".join(line for line in lines if not line.startswith("# ")) == body

    @pytest.mark.parametrize("n_top", [300, 5])
    def test_reliability(self, tmp_path, capsys, n_top):
        dets, manifest = _generated_corpus(tmp_path)
        out = tmp_path / "reliability.tsv"
        assert main(["reliability", "--detections", str(dets), "--manifest", str(manifest),
                     "--n-top", str(n_top), "--out", str(out)]) == 0
        reports = corpus_reliability(
            ingest_detections(dets), load_manifest(manifest).load_records(), n_top
        )
        lines = [
            f"{frame_id}\t{scale}\t{r.r_v!r}\t{r.r_t!r}\t{r.reference_modality}"
            for frame_id, scale, r in reports
            if r is not None
        ]
        thermal = thermal_reliability_percentage(r for _, _, r in reports)
        lines += [f"# thermal_percent = {thermal!r}", f"# visible_percent = {100.0 - thermal!r}"]
        assert len(lines) > 20
        assert out.read_text("utf-8") == "\n".join(lines) + "\n"
