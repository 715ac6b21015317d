"""File format parsing, serialization round trips, and run configuration."""

import json
import math
import re
import tracemalloc
from dataclasses import fields

import pytest

from msfusion import ingest
from msfusion.evaluation import STANDARD_SETTINGS, apply_setting
from msfusion.geometry import SCALES, BBox, Detection, DetectionTable
from msfusion.ingest import (
    Manifest,
    RunConfig,
    group_by_frame,
    ingest_detections,
    load_config,
    load_manifest,
    parse_annotation_text,
    parse_detection_line,
    run_config_from_mapping,
    serialize_detections,
)


class TestAnnotations:
    def test_xywh_converted_to_corners(self):
        gts = parse_annotation_text("% bbGt version=3\nperson 10 20 30 60 0\n")
        assert len(gts) == 1
        assert gts[0].box == BBox(10, 20, 40, 80)
        assert gts[0].occlusion == "none"
        assert gts[0].height == 60
        assert not gts[0].ignore

    def test_empty_body(self):
        assert parse_annotation_text("% bbGt version=3\n") == []

    def test_heavy_occlusion_excluded_from_reasonable(self):
        gts = parse_annotation_text("% bbGt version=3\nperson 0 0 30 80 2\n")
        assert gts[0].occlusion == "heavy"
        evaluated, ignored = apply_setting(gts, STANDARD_SETTINGS["reasonable"])
        assert evaluated == [] and len(ignored) == 1

    def test_unknown_label_becomes_ignore(self):
        gts = parse_annotation_text("% bbGt version=3\nperson? 0 0 30 80 0\n")
        assert gts[0].ignore

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_annotation_text("person 0 0 30 80 0\n", source="x.txt")

    def test_malformed_line_reports_location(self):
        text = "% bbGt version=3\nperson 0 0 30 80 0\nperson a b c d 0\n"
        with pytest.raises(ValueError, match="x.txt:3"):
            parse_annotation_text(text, source="x.txt")

    def test_bad_occlusion_code(self):
        with pytest.raises(ValueError, match="occlusion"):
            parse_annotation_text("% bbGt version=3\nperson 0 0 30 80 5\n")

    def test_non_finite_annotation_rejected_with_location(self):
        with pytest.raises(ValueError, match="ann.txt:3: invalid box corners"):
            parse_annotation_text(
                "% bbGt version=3\nperson 0 0 10 20 0\nperson 0 0 inf 20 0\n", "ann.txt"
            )

    def test_directory_ingestion(self, tmp_path):
        # A manifest's annotation paths are read relative to its root, with
        # its annotation_scale, and records keep manifest order.
        for stem, row in (("000002", "person 0 0 30 80 0"), ("000001", "person 2 4 6 8 1")):
            (tmp_path / f"{stem}.txt").write_text(
                f"% bbGt version=3\n{row}\n", encoding="utf-8"
            )
        manifest = Manifest(
            frame_ids=("000002", "000001"),
            times_of_day=("night", "night"),
            annotations=("000002.txt", "000001.txt"),
            annotation_scale=(2.0, 0.5),
            root=tmp_path,
        )
        records = manifest.load_records()
        assert [r.frame_id for r in records] == ["000002", "000001"]
        assert all(r.time_of_day == "night" for r in records)
        assert [[g.box for g in r.gts] for r in records] == [
            [BBox(0, 0, 60, 40)],
            [BBox(4, 2, 16, 6)],
        ]


    def test_a_valid_corpus_never_reaches_the_line_parser(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("parse_annotation_text called")

        monkeypatch.setattr(ingest, "parse_annotation_text", refuse)
        for k in range(40):
            rows = [
                f"{('person', 'people')[j % 2]}\t{j}.5 {k} {j + 10}.25  {40 + j}  {j % 3}"
                + " 0 0 0 0 0 0" * (k % 2)
                for j in range(k % 5)
            ]
            text = "\r\n".join(["% bbGt version=3", "", *rows, "  "]) + "\r\n" * (k % 3 > 0)
            (tmp_path / f"{k:06d}.txt").write_bytes(text.encode())
        truths = Manifest(
            frame_ids=tuple(f"{k:06d}" for k in range(40)),
            times_of_day=tuple(("day", "night")[k % 2] for k in range(40)),
            annotations=tuple(f"{k:06d}.txt" for k in range(40)),
            root=tmp_path,
        ).load_ground_truths()
        assert len(truths.frame) == sum(k % 5 for k in range(40))
        assert truths.ignore.tolist() == [j % 2 == 1 for k in range(40) for j in range(k % 5)]
        assert len(truths.records()) == 40

class TestDetections:
    def test_example_line(self):
        d = parse_detection_line("000123 vis s80 10 10 50 110 0.93")
        assert d == Detection(BBox(10, 10, 50, 110), 0.93, "vis", "s80", "000123")

    def test_modality_aliases(self):
        assert parse_detection_line("f thermal s40 0 0 1 1 0.5").modality == "ir"
        assert parse_detection_line("f visible s40 0 0 1 1 0.5").modality == "vis"

    def test_duplicates_kept(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "000123 vis s80 10 10 50 110 0.93\n000123 vis s80 10 10 50 110 0.93\n",
            encoding="utf-8",
        )
        assert len(ingest_detections(path)) == 2

    def test_out_of_range_score_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("000123 vis s80 10 10 50 110 1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"d\.txt:1"):
            ingest_detections(path)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError, match="invalid box"):
            parse_detection_line("f vis s80 50 10 10 110 0.5", "x", 4)

    def test_non_finite_corner_rejected_with_location(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("f1 vis s80 0 0 10 10 0.9\nf1 vis s80 0 0 inf 10 0.9\n", "utf-8")
        with pytest.raises(ValueError, match=r"d\.txt:2: invalid box corners"):
            ingest_detections(path)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale_id"):
            parse_detection_line("f vis s77 0 0 1 1 0.5")

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "# header = 1\n\n000123 ir s20 0 0 5 5 0.25\n", encoding="utf-8"
        )
        dets = ingest_detections(path)
        assert len(dets) == 1 and dets[0].modality == "ir"

    def test_roundtrip_lossless(self, tmp_path):
        dets = [
            Detection(BBox(10.0, 10.0, 50.0, 110.0), 0.93, "vis", "s80", "000123"),
            Detection(BBox(0.25, 1.5, 5.75, 9.125), 0.5, "ir", "s40", "000124"),
        ]
        path = tmp_path / "d.txt"
        path.write_text(serialize_detections(dets, {"strategy": "both"}), encoding="utf-8")
        again = ingest_detections(path)
        assert [(d.frame_id, d.modality, d.scale_id, d.box, d.score) for d in again] == [
            (d.frame_id, d.modality, d.scale_id, d.box, d.score) for d in dets
        ]


    def test_reads_a_table_and_writes_it_back_byte_for_byte(self, tmp_path):
        dets = [
            Detection(BBox(10.0, -0.0, 50.0, 110.0), 0.93, "vis", "s80", "b"),
            Detection(BBox(0.25, 1.5, 5.75, 9.125), 0.5, "ir", "s40", "a"),
            Detection(BBox(1e-300, 2.0, 3.0, 1e300), 1.0, "fused", "s20", "a\x00"),
        ]
        text = serialize_detections(dets, {"k": "v"})
        path = tmp_path / "d.txt"
        path.write_text(text, encoding="utf-8")
        table = ingest_detections(path)
        assert isinstance(table, DetectionTable) and table == dets
        assert serialize_detections(table, {"k": "v"}) == text

    @pytest.mark.parametrize("frame_id", ["#x", "", "a b", "a\tb", "a\x0bb", "a\u2028b", "a\n"])
    def test_serialize_rejects_a_frame_id_the_line_format_cannot_carry(self, frame_id):
        # "#x" used to be written as a comment line, so its row was lost on
        # reading; "" and "a b" failed later, naming a line the writer made.
        dets = [
            Detection(BBox(0, 0, 1, 1), 0.5, "vis", "s80", "a"),
            Detection(BBox(0, 0, 1, 1), 0.5, "vis", "s80", frame_id),
        ]
        for rows in (dets, DetectionTable.from_detections(dets)):
            with pytest.raises(ValueError, match=f"frame id {re.escape(repr(frame_id))}"):
                serialize_detections(rows)

    def test_serialize_checks_only_the_frame_ids_of_its_rows(self):
        table = DetectionTable.from_detections(
            [Detection(BBox(0, 0, 1, 1), 0.5, "vis", "s80", f) for f in ("#x", "a#b")]
        )
        assert serialize_detections(table.subset(frame_id="a#b")).startswith("a#b vis s80 ")

    def test_a_valid_dump_never_reaches_the_line_parser(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("parse_detection_line called")

        monkeypatch.setattr(ingest, "parse_detection_line", refuse)
        lines = ["# header = 1", ""] + [
            f"{k // 7:06d}\t{('vis', 'ir')[k % 2]} {SCALES[k % 3]}  {k % 50}.5 0 {k % 50 + 10}.25 "
            f"20 0.{k:03d}"
            for k in range(1000)
        ]
        path = tmp_path / "d.txt"
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
        table = ingest_detections(path)
        assert len(table) == 1000 and len(table.frame_ids) == 143

    def test_raw_and_written_dumps_never_reach_the_line_parser(self, tmp_path, monkeypatch):
        # A raw dump laid out as a benchmark corpus writes it (%.2f corners,
        # %.6f scores), with six-digit and with KAIST-style 17-character
        # frame ids, and serialize_detections' output of it with a
        # "# key = value" header.
        def refuse(*args):
            raise AssertionError("parse_detection_line called")

        monkeypatch.setattr(ingest, "parse_detection_line", refuse)
        for frame_id in ("{:06d}".format, "set00_V000_I{:05d}".format):
            lines = [
                f"{frame_id(k // 60 * 10)} {('vis', 'ir', 'fused')[k // 20 % 3]} "
                f"{SCALES[k // 5 % 3]} {k % 97:.2f} {k % 89 + 0.5:.2f} {k % 97 + 20.25:.2f} "
                f"{k % 89 + 60:.2f} {(k % 1000) / 1000:.6f}"
                for k in range(6000)
            ]
            raw = tmp_path / "raw.txt"
            raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
            table = ingest_detections(raw)
            assert len(table) == 6000 and len(table.frame_ids) == 100
            assert table.frame_ids[1] == frame_id(10)
            written = tmp_path / "written.txt"
            written.write_text(
                serialize_detections(table, {"strategy": "algo1", "nms_thres": "0.5"}),
                encoding="utf-8",
            )
            again = ingest_detections(written)
            assert again.frame_ids == table.frame_ids
            for column in ("corners", "scores", "frame_codes", "modality_codes", "scale_codes"):
                assert getattr(again, column).tobytes() == getattr(table, column).tobytes()

    def test_a_very_long_frame_id_is_read_with_the_rest_of_the_dump(self, tmp_path, monkeypatch):
        # Frame ids are Python strings as long as they are: one id of 20,000
        # characters among short rows neither widens the rows nor sends the
        # dump to the line parser.
        def refuse(*args):
            raise AssertionError("parse_detection_line called")

        long_id = "x" * 20_000
        lines = ["f vis s80 0 0 1 1 0.5"] * 500 + [f"{long_id} ir s40 0 0 2 2 0.25"]
        path = tmp_path / "d.txt"
        path.write_text("\n".join(lines + ["g vis s20 0 0 1 1 0.5"] * 500) + "\n", "utf-8")
        monkeypatch.setattr(ingest, "parse_detection_line", refuse)
        table = ingest_detections(path)
        assert table.frame_ids == ("f", "g", long_id)
        assert table.frame_codes.tolist() == [0] * 500 + [2] + [1] * 500
        assert table.modality_codes.tolist() == [0] * 500 + [1] + [0] * 500
        assert table.scale_codes.tolist() == [0] * 500 + [1] + [2] * 500

    def test_a_bad_line_near_the_end_of_a_long_dump_is_named(self, tmp_path):
        # The one loadtxt call fails naming no line; the line parser then
        # raises the bad line's own error.
        lines = [f"{k // 6:06d} vis s80 0 0 1 1 0.5" for k in range(6000)]
        lines[5998] = "000999 vis s80 0 0 1 1 1.5"
        path = tmp_path / "d.txt"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(ValueError) as err:
            ingest_detections(path)
        assert str(err.value) == f"{path}:5999: score must be in [0, 1], got 1.5"

    def test_reading_a_dump_holds_under_six_times_its_size(self, tmp_path):
        # The traced peak of one read of a dump of over 1 MB, the table
        # included. The modality changes on every row, so every row starts
        # a run of that column.
        lines = [
            f"{k // 60:06d} {('vis', 'ir')[k % 2]} {SCALES[k // 2 % 3]} {k % 97:.2f} "
            f"{k % 89:.2f} {k % 97 + 20.25:.2f} {k % 89 + 60.5:.2f} {k % 1000 / 1000:.6f}"
            for k in range(24_000)
        ]
        path = tmp_path / "d.txt"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        size = path.stat().st_size
        assert size >= 1 << 20
        ingest_detections(path)  # first-call imports and caches stay outside the trace
        tracemalloc.start()
        try:
            table = ingest_detections(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 24_000
        assert peak < 6 * size

    def test_group_by_frame_of_a_table_and_a_list_agree(self):
        dets = [
            Detection(BBox(0, 0, 1, 1), 0.5, "vis", "s80", frame)
            for frame in ("b", "a", "b", "a\x00")
        ]
        lists = group_by_frame(dets)
        tables = group_by_frame(DetectionTable.from_detections(dets))
        assert list(lists) == list(tables) == ["b", "a", "a\x00"]
        assert all(lists[f][0] is dets[[d.frame_id for d in dets].index(f)] for f in lists)
        assert all(tables[f] == lists[f] for f in lists)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n_top == 300
        assert cfg.postprocess.strategy == "algo1"
        assert cfg.scale_strides["s80"] == 8.0

    def test_config_file_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# demo config\nn_top = 10\nstrategy = both\n"
            "iou_thres = 0.4\nsettings = reasonable,all\nstride_s20 = 64\n",
            encoding="utf-8",
        )
        cfg = run_config_from_mapping(load_config(path))
        assert cfg.n_top == 10
        assert cfg.postprocess.strategy == "both"
        assert cfg.postprocess.iou_thres == 0.4
        assert cfg.settings == ("reasonable", "all")
        assert cfg.scale_strides["s20"] == 64.0
        assert cfg.scale_strides["s80"] == 8.0  # untouched default

    @pytest.mark.parametrize(
        "n_top, message", [(0, "n_top must be >= 1, got 0"), (-3, "n_top must be >= 1, got -3"),
                           (1.5, "n_top must be an integer, got 1.5"),
                           (math.nan, "n_top must be an integer, got nan")],
    )
    def test_n_top_must_be_a_positive_integer(self, n_top, message):
        # A float n_top constructed silently and raised a TypeError in scoring.
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig(n_top=n_top)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            run_config_from_mapping({"betaa": "1"})

    def test_a_repeated_key_is_rejected_naming_both_lines(self, tmp_path):
        # The last value used to win silently; a manifest already rejects a
        # repeated frame id.
        path = tmp_path / "run.cfg"
        path.write_text("n_top = 3\nn_top = 5\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:2: key 'n_top' repeats line 1"

    @pytest.mark.parametrize(
        "strides, named",
        [
            ({"s80": 4.0, "s99": 1.0}, "missing ['s40', 's20'], unknown ['s99']"),
            ({"s80": 8.0, "s40": 16.0}, "missing ['s20'], unknown []"),
            ({"s80": 8.0, "s40": 16.0, "s20": 32.0, "s10": 64.0}, "missing [], unknown ['s10']"),
        ],
    )
    def test_a_stride_map_without_exactly_the_scales_is_rejected(self, strides, named):
        # A map missing a scale used to construct, and echo() then raised a
        # KeyError for it.
        with pytest.raises(ValueError, match=f"^scale_strides: {re.escape(named)}$"):
            RunConfig(scale_strides=strides)

    def test_a_directory_is_named_in_the_read_error(self, tmp_path):
        # The read of a path that opens but cannot be read names the path.
        with pytest.raises(IsADirectoryError) as err:
            load_config(tmp_path)
        assert err.value.filename == str(tmp_path)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beta: 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="run.cfg:1"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("n_top", "3.5"), ("n_top", "many"), ("iou_thres", "half"), ("stride_s40", "x")],
    )
    def test_malformed_value_names_the_key(self, key, value):
        # n_top = 3.5 used to fail as "invalid literal for int()".
        with pytest.raises(ValueError, match=f"^{key}: expected"):
            run_config_from_mapping({key: value})

    @pytest.mark.parametrize("value", ["0", "-8", "nan", "inf", "-inf"])
    def test_non_positive_or_non_finite_stride_rejected(self, value):
        with pytest.raises(ValueError, match="stride_s80"):
            run_config_from_mapping({"stride_s80": value})

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError, match="eval setting"):
            run_config_from_mapping({"settings": "unreasonable"})

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_settings_rejected(self, value):
        # ``settings =`` used to make eval print a header and no rows.
        with pytest.raises(ValueError, match="^settings: expected at least one eval setting$"):
            run_config_from_mapping({"settings": value})

    def test_echo_roundtrips_through_the_parser(self):
        cfg = run_config_from_mapping(
            {"strategy": "ir", "iou_thres": "0.41", "n_top": "12", "stride_s40": "12.5"}
        )
        again = run_config_from_mapping(cfg.echo())
        assert again == cfg

    def test_echo_covers_every_numeric_default(self):
        echo = RunConfig().echo()
        for key in (
            "n_top",
            "conf_thres_v",
            "conf_thres_t",
            "iou_thres",
            "nms_thres",
            "strategy",
            "settings",
            "stride_s80",
            "stride_s40",
            "stride_s20",
        ):
            assert key in echo


class TestManifest:
    def _manifest(self, tmp_path):
        for stem in ("000001", "000004"):
            (tmp_path / f"{stem}.txt").write_text(
                "% bbGt version=3\nperson 0 0 30 80 0\n", encoding="utf-8"
            )
        return Manifest(
            frame_ids=("000001", "000004"),
            times_of_day=("day", "night"),
            annotations=("000001.txt", "000004.txt"),
            root=tmp_path,
        )

    def test_load_reads_the_sequence_block(self, tmp_path):
        # The block is checked against the frames and then dropped.
        path = tmp_path / "manifest.json"
        path.write_text(
            """{
              "frames": [
                {"frame_id": "000001", "time_of_day": "day", "annotations": "000001.txt"},
                {"frame_id": "000004", "time_of_day": "night", "annotations": "000004.txt"}
              ],
              "sequence": {"frames_per_group": 2, "stride": 3, "groups": [["000001", "000004"]]},
              "annotation_scale": [1.0, 1.0]
            }""",
            encoding="utf-8",
        )
        assert load_manifest(path) == self._manifest(tmp_path)

    def test_load_records_reads_annotations(self, tmp_path):
        manifest = self._manifest(tmp_path)
        records = manifest.load_records()
        assert [r.time_of_day for r in records] == ["day", "night"]
        assert all(len(r.gts) == 1 for r in records)

    @staticmethod
    def _load_error(path, payload):
        # The message of the ValueError that loading ``payload`` raises.
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        return str(err.value)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        frames = [{"frame_id": "a", "time_of_day": tod} for tod in ("day", "night")]
        message = self._load_error(path, {"frames": frames})
        assert message.startswith(f"{path}: ") and "unique" in message

    def test_wrong_group_size_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        payload = {
            "frames": [{"frame_id": "000001"}, {"frame_id": "000002"}],
            "sequence": {"frames_per_group": 3, "stride": 1, "groups": [["000001", "000002"]]},
        }
        message = self._load_error(path, payload)
        assert message.startswith(f"{path}: ") and "members" in message

    def test_wrong_stride_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        payload = {
            "frames": [{"frame_id": "000001"}, {"frame_id": "000003"}],
            "sequence": {"frames_per_group": 2, "stride": 3, "groups": [["000001", "000003"]]},
        }
        message = self._load_error(path, payload)
        assert message.startswith(f"{path}: ") and "stride" in message

    @pytest.mark.parametrize(
        "frame_ids, repeated",
        [(["a", "a"], "a"), (["1", "2", "3", "2"], "2"), (["x", "None", "y", "None"], "None")],
    )
    def test_duplicate_id_is_named(self, tmp_path, frame_ids, repeated):
        # The message used to name no id.
        path = tmp_path / "manifest.json"
        message = self._load_error(path, {"frames": [{"frame_id": f} for f in frame_ids]})
        assert message == f"{path}: manifest frame_ids must be unique, {repeated!r} repeats"
        with pytest.raises(ValueError, match=f"{repeated!r} repeats"):
            Manifest(tuple(frame_ids), ("day",) * len(frame_ids), (None,) * len(frame_ids))

    @pytest.mark.parametrize(
        "time_of_day, shown",
        [(5, "5"), (None, "None"), ("None", "'None'"), ("dusk", "'dusk'"), (["day"], "['day']")],
    )
    def test_time_of_day_error_names_frame_and_json_value(self, tmp_path, time_of_day, shown):
        # str() used to show JSON null as the string 'None'.
        path = tmp_path / "manifest.json"
        payload = {"frames": [{"frame_id": "000001", "time_of_day": time_of_day}]}
        message = self._load_error(path, payload)
        assert message == f"{path}: frame '000001': unknown time_of_day {shown}"

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="columns differ in length"):
            Manifest(("a", "b"), ("day", "day"), ("a.txt",))

    @pytest.mark.parametrize(
        "payload",
        [
            {"frames": [{"time_of_day": "day"}]},  # no frame_id: was KeyError
            {"frames": [], "annotation_scale": [2]},  # was IndexError
            [{"frame_id": "a"}],  # top-level list: was AttributeError
            {"frames": ["a"]},
            {"frames": 3},
            {"frames": [], "sequence": [1, 2]},
            {"frames": [], "annotation_scale": [1, None]},
            {"frames": [], "annotation_scale": ["x", 1]},
            {"frames": [{"frame_id": "a", "time_of_day": "dusk"}]},  # failed in load_records
            {"frames": [{"frame_id": "a", "annotations": 5}]},  # TypeError in load_records
            {"frames": [{"frame_id": "a", "annotations": ["a.txt"]}]},
            {"frames": [], "annotation_scale": [0, 1]},  # zero-width gts: eval exited 0
            {"frames": [], "annotation_scale": [-1, 1]},
            {"frames": [], "annotation_scale": [float("nan"), 1]},
            {"frames": [], "annotation_scale": [True, 1]},  # loaded as (1.0, 1.0)
            {"frames": [], "annotation_scale": [10**400, 1]},  # was OverflowError
            {"frames": [{"frame_id": None}]},  # loaded as frame 'None'
            {"frames": [{"frame_id": 1.5}]},  # loaded as frame '1.5'
            {"frames": [{"frame_id": 7}]},
            {"frames": [{"frame_id": "None"}], "sequence": {"groups": [[None]]}},
            {"frames": [{"frame_id": "1"}], "sequence": {"groups": [[1]]}},
        ],
    )
    def test_malformed_manifest_raises_value_error_naming_file(self, tmp_path, payload):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "scale, shown",
        [
            (["2", "1e0"], "'2'"),  # loaded as (2.0, 1.0)
            ([1, None], "None"),  # leaked float()'s own message
            ([1.5, "x"], "'x'"),
            ([True, 1], "True"),
            ([1, [2]], "[2]"),
        ],
    )
    def test_annotation_scale_takes_json_numbers_only(self, tmp_path, scale, shown):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"frames": [], "annotation_scale": scale}), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: annotation_scale: {shown} is not a JSON number"

    def test_annotation_scale_reads_integers_and_floats(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"frames": [], "annotation_scale": [2, 0.5]}), encoding="utf-8")
        scale = load_manifest(path).annotation_scale
        assert scale == (2.0, 0.5) and all(type(s) is float for s in scale)

    @pytest.mark.parametrize(
        "payload, message",
        [
            # A misspelt key used to be ignored: eval exited 0 with n/a rows.
            ({"frames": [], "sequnce": {"stride": 1}}, "unknown key 'sequnce'"),
            ({"frames": [], "sequence": {"strides": 2}}, "sequence: unknown key 'strides'"),
            (
                {"frames": [{"frame_id": "a", "anotations": "a.txt"}]},
                "frame 'a': unknown key 'anotations'",
            ),
            (
                {"frames": [{"frame_id": "a", "detections": "a.txt"}]},
                "frame 'a': unknown key 'detections'",
            ),
        ],
    )
    def test_unknown_key_names_file_and_key(self, tmp_path, payload, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: {message}"

    @staticmethod
    def _sequence_manifest(path, **sequence):
        # Frames 1, 3 and 5 as one group of three spaced by stride 2, with
        # ``sequence`` written over the valid block.
        block = {"frames_per_group": 3, "stride": 2, "groups": [["1", "3", "5"]], **sequence}
        frames = [{"frame_id": fid} for fid in ("1", "3", "5")]
        path.write_text(json.dumps({"frames": frames, "sequence": block}), encoding="utf-8")
        return path

    def test_sequence_block_loads(self, tmp_path):
        # A valid block, with or without its sizes, leaves only the frames.
        frames = Manifest(("1", "3", "5"), ("day",) * 3, (None,) * 3, root=tmp_path)
        assert load_manifest(self._sequence_manifest(tmp_path / "m.json")) == frames
        unset = self._sequence_manifest(tmp_path / "n.json", frames_per_group=None, stride=None)
        assert load_manifest(unset) == frames
        assert [f.name for f in fields(Manifest)] == [
            "frame_ids", "times_of_day", "annotations", "annotation_scale", "root"
        ]

    @pytest.mark.parametrize(
        "groups, message",
        [
            ([["1", "3"]], "sequence group ('1', '3') does not have 3 members"),
            ([["1", "3", "7"]], "sequence group references unknown frames ['7']"),
            ([["1", "3", "5"], ["3", "x", "5"]], "sequence group references unknown frames ['x']"),
            ([["1", "5", "3"]], "sequence group ('1', '5', '3') is not spaced by stride 2"),
        ],
    )
    def test_sequence_group_checked_against_the_frames(self, tmp_path, groups, message):
        path = self._sequence_manifest(tmp_path / "manifest.json", groups=groups)
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: {message}"

    def test_stride_needs_numeric_frame_ids(self, tmp_path):
        path = tmp_path / "manifest.json"
        frames = [{"frame_id": f} for f in ("a", "b")]
        message = self._load_error(
            path, {"frames": frames, "sequence": {"stride": 1, "groups": [["a", "b"]]}}
        )
        assert message == (
            f"{path}: sequence group ('a', 'b') needs numeric frame ids to check the stride"
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("frames_per_group", "3"),  # was "does not have 3 members"
            ("frames_per_group", 0),
            ("frames_per_group", -2),
            ("frames_per_group", 2.5),
            ("frames_per_group", True),
            ("stride", "2"),  # was "is not spaced by stride 2"
            ("stride", 0),
            ("stride", -2),
            ("stride", 2.5),
            ("groups", "abc"),  # was read as groups of single characters
            ("groups", ["135"]),
            ("groups", 5),
            ("groups", {"a": ["1"]}),
        ],
    )
    def test_malformed_sequence_names_file_and_key(self, tmp_path, key, value):
        path = self._sequence_manifest(tmp_path / "manifest.json", **{key: value})
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(err.value).startswith(f"{path}: sequence.{key}: ")
