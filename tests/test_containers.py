"""Binary tensor container round trips and validation."""

import struct

import numpy as np
import pytest

from msfusion.containers import (
    TENSORS_MAGIC,
    WEIGHTS_MAGIC,
    load_tensors,
    save_tensors,
)


def test_roundtrip_preserves_names_shapes_values(tmp_path):
    rng = np.random.default_rng(5)
    tensors = {
        "alpha": rng.standard_normal((2, 3, 4)).astype(np.float32),
        "beta": rng.standard_normal(7).astype(np.float32),
        "scalar": np.float32(4.0),
    }
    path = tmp_path / "t.bin"
    save_tensors(path, tensors, TENSORS_MAGIC)
    back = load_tensors(path, TENSORS_MAGIC)
    assert list(back) == ["alpha", "beta", "scalar"]
    for name, value in tensors.items():
        assert back[name].shape == np.asarray(value).shape
        np.testing.assert_array_equal(back[name], np.asarray(value, dtype=np.float64))


def test_save_is_byte_deterministic(tmp_path):
    tensors = {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_tensors(a, tensors, WEIGHTS_MAGIC)
    save_tensors(b, tensors, WEIGHTS_MAGIC)
    assert a.read_bytes() == b.read_bytes()


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.zeros(2, dtype=np.float32)}, TENSORS_MAGIC)
    with pytest.raises(ValueError, match="magic"):
        load_tensors(path, WEIGHTS_MAGIC)


def test_unknown_magic_rejected(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"XXXXYYYY" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_tensors(path)


@pytest.mark.parametrize("magic", [b"", b"SFT1", b"SFTENSOR9"])
def test_magic_of_another_length_rejected_before_writing(tmp_path, magic):
    path = tmp_path / "t.bin"
    with pytest.raises(ValueError, match="^container magic must be 8 bytes$"):
        save_tensors(path, {"w": np.zeros(2, dtype=np.float32)}, magic)
    assert not path.exists()


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.zeros(8, dtype=np.float32)}, TENSORS_MAGIC)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_tensors(path)


def test_float64_values_are_cast_to_float32(tmp_path):
    path = tmp_path / "t.bin"
    value = np.array([1.0 / 3.0], dtype=np.float64)
    save_tensors(path, {"w": value}, TENSORS_MAGIC)
    back = load_tensors(path)["w"]
    assert back[0] == np.float32(1.0 / 3.0)


def _scalar_container(names):
    # A hand-built container of rank-0 tensors with the given raw name bytes.
    parts = [TENSORS_MAGIC, struct.pack("<I", len(names))]
    for name in names:
        parts += [struct.pack("<I", len(name)), name, struct.pack("<I", 0)]
    return b"".join(parts) + np.zeros(len(names), dtype="<f4").tobytes()


def test_non_utf8_name_rejected_naming_file_and_tensor(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(_scalar_container([b"ok", b"\xff"]))
    with pytest.raises(ValueError, match=r"t\.bin: tensor 1: name is not valid UTF-8"):
        load_tensors(path)


def test_duplicate_name_rejected_naming_file_and_tensor(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(_scalar_container([b"w", b"v", b"w"]))
    with pytest.raises(ValueError, match=r"t\.bin: tensor 2: duplicate tensor name 'w'"):
        load_tensors(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected_naming_file_and_tensor(tmp_path, bad):
    # Loading used to succeed; each caller had to check the values itself.
    path = tmp_path / "t.bin"
    save_tensors(path, {"ok": np.ones(3), "w": np.array([[0.0, bad]])}, TENSORS_MAGIC)
    with pytest.raises(ValueError) as err:
        load_tensors(path)
    assert str(err.value) == f"{path}: tensor 'w' has non-finite values"


@pytest.mark.parametrize("big", [1e39, -1e39])
def test_finite_value_beyond_float32_range_fails_in_the_writer(tmp_path, big):
    # The cast used to write inf with only a warning, and the reader then
    # rejected the file that the writer had just written.
    path = tmp_path / "t.bin"
    with pytest.raises(ValueError) as err:
        save_tensors(path, {"ok": np.ones(2), "vis": np.array([0.5, big])}, TENSORS_MAGIC)
    assert str(err.value) == f"{path}: tensor 'vis' has values beyond float32 range"
    assert not path.exists()


def test_float32_max_is_written(tmp_path):
    path = tmp_path / "t.bin"
    top = float(np.finfo(np.float32).max)
    save_tensors(path, {"vis": np.array([top, -top])}, TENSORS_MAGIC)
    assert load_tensors(path)["vis"].tolist() == [top, -top]


def _header_only_container(name, shape):
    # A hand-built container header for one tensor of ``shape``, no payload.
    encoded = name.encode()
    dims = [struct.pack("<I", len(shape))] + [struct.pack("<I", d) for d in shape]
    return b"".join([TENSORS_MAGIC, struct.pack("<I", 1), struct.pack("<I", len(encoded)),
                     encoded, *dims])


@pytest.mark.parametrize("shape", [(65536,) * 4, (2**31, 2**31, 4)])
def test_dims_whose_product_overflows_int64_are_a_truncated_payload(tmp_path, shape):
    # The size was taken in int64 and wrapped to 0, so numpy's reshape
    # error surfaced without the file's name.
    path = tmp_path / "t.bin"
    path.write_bytes(_header_only_container("vis", shape))
    with pytest.raises(ValueError) as err:
        load_tensors(path)
    assert str(err.value) == f"{path}: truncated payload for tensor 'vis'"
