"""Binary named-tensor containers for weights and feature tensors.

Layout: an 8-byte ASCII magic, a manifest (tensor count, then per tensor a
UTF-8 name length and bytes, the rank, and the dims, all unsigned 32-bit
little-endian), followed by the payloads as little-endian IEEE-754 single
precision in manifest order.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

WEIGHTS_MAGIC = b"SFWT0001"
TENSORS_MAGIC = b"SFTN0001"

_U32 = struct.Struct("<I")


def save_tensors(
    path: str | Path,
    tensors: dict[str, np.ndarray],
    magic: bytes = TENSORS_MAGIC,
) -> None:
    """Write named tensors to ``path``; values are cast to float32."""
    if len(magic) != 8:
        raise ValueError("container magic must be 8 bytes")
    parts: list[bytes] = [magic, _U32.pack(len(tensors))]
    payloads: list[bytes] = []
    for name, tensor in tensors.items():
        arr = np.asarray(tensor, dtype="<f4")
        encoded = name.encode("utf-8")
        parts.append(_U32.pack(len(encoded)))
        parts.append(encoded)
        parts.append(_U32.pack(arr.ndim))
        for dim in arr.shape:
            parts.append(_U32.pack(dim))
        payloads.append(arr.tobytes())
    Path(path).write_bytes(b"".join(parts + payloads))


def load_tensors(path: str | Path, magic: bytes | None = None) -> dict[str, np.ndarray]:
    """Read a container written by :func:`save_tensors`.

    Returns float64 arrays keyed by name. ``magic`` restricts the accepted
    container kind; None accepts both known kinds. A malformed container
    (bad magic, truncated, trailing bytes, a tensor name that is not UTF-8
    or that repeats an earlier one, a NaN or infinite value) raises a
    ``ValueError`` naming the file and, where one is at fault, the tensor.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ValueError(f"{path}: truncated container")
    header = raw[:8]
    if magic is not None:
        if header != magic:
            raise ValueError(f"{path}: bad container magic {header!r}")
    elif header not in (WEIGHTS_MAGIC, TENSORS_MAGIC):
        raise ValueError(f"{path}: bad container magic {header!r}")

    offset = 8

    def read_u32() -> int:
        nonlocal offset
        if offset + 4 > len(raw):
            raise ValueError(f"{path}: truncated container")
        (value,) = _U32.unpack_from(raw, offset)
        offset += 4
        return value

    count = read_u32()
    manifest: list[tuple[str, tuple[int, ...]]] = []
    seen: set[str] = set()
    for index in range(count):
        name_len = read_u32()
        if offset + name_len > len(raw):
            raise ValueError(f"{path}: truncated container")
        try:
            name = raw[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: tensor {index}: name is not valid UTF-8") from None
        if name in seen:
            raise ValueError(f"{path}: tensor {index}: duplicate tensor name {name!r}")
        seen.add(name)
        offset += name_len
        rank = read_u32()
        shape = tuple(read_u32() for _ in range(rank))
        manifest.append((name, shape))

    tensors: dict[str, np.ndarray] = {}
    for name, shape in manifest:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + 4 * size
        if end > len(raw):
            raise ValueError(f"{path}: truncated payload for tensor {name!r}")
        flat = np.frombuffer(raw, dtype="<f4", count=size, offset=offset)
        if not np.isfinite(flat).all():
            raise ValueError(f"{path}: tensor {name!r} has non-finite values")
        tensors[name] = flat.astype(np.float64).reshape(shape)
        offset = end
    if offset != len(raw):
        raise ValueError(f"{path}: trailing bytes after payloads")
    return tensors
