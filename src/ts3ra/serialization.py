"""Flat binary container for trained model parameters.

Layout: magic ``TS3RA-SN`` (8 bytes), version (u32 LE), section count
(u32 LE); per section a 4-byte tag, a shape table (tensor count, then per
tensor a name and its dimensions, all little-endian), then the tensors'
float64 payloads in declaration order.  The slice-selection model uses
section ``SNET``; the allocator's weight matrix uses section ``HOPF``.
"""

from __future__ import annotations

__all__ = [
    "ContainerFormatError", "load_hopfield", "load_slicenet", "read_container",
    "save_hopfield", "save_slicenet", "write_container",
]

import struct
from pathlib import Path
from typing import Union

import numpy as np

MAGIC = b"TS3RA-SN"
VERSION = 1
SNET_TAG = b"SNET"
HOPF_TAG = b"HOPF"

Sections = dict[bytes, dict[str, np.ndarray]]


class ContainerFormatError(ValueError):
    """The file is not a valid parameter container."""


def write_container(path: Union[str, Path], sections: Sections) -> None:
    """Write tagged sections of named tensors in the layout above."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(sections)))
        for tag, tensors in sections.items():
            if len(tag) != 4:
                raise ValueError("section tags are exactly 4 bytes")
            fh.write(tag)
            fh.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            for arr in tensors.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path: Union[str, Path]) -> Sections:
    """Read every section of a container; raise
    :class:`ContainerFormatError` on a malformed file."""
    data = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise ContainerFormatError(f"{path}: truncated at byte {len(data)}")
        off += n
        return data[off - n : off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if data[:8] != MAGIC:
        raise ContainerFormatError(f"{path}: bad magic")
    take(8)
    version, n_sections = unpack("<II")
    if version != VERSION:
        raise ContainerFormatError(f"{path}: unsupported version {version}")
    sections: Sections = {}
    for _ in range(n_sections):
        tag = take(4)
        (n_tensors,) = unpack("<I")
        shapes: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(n_tensors):
            (name_len,) = unpack("<H")
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise ContainerFormatError(f"{path}: a tensor name is not UTF-8") from None
            (ndim,) = unpack("<I")
            shapes.append((name, unpack(f"<{ndim}I")))
        tensors: dict[str, np.ndarray] = {}
        for name, shape in shapes:
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape)
            tensors[name] = arr.astype(np.float64)
        sections[tag] = tensors
    return sections


def save_slicenet(model, path: Union[str, Path]) -> None:
    """Write a slice-selection model's tensors as section ``SNET``."""
    write_container(path, {SNET_TAG: model.parameters()})


def load_slicenet(path: Union[str, Path]):
    """Rebuild a slice-selection model from section ``SNET``, its width
    read from ``lift_w``."""
    from .slicenet import SliceNetModel

    sections = read_container(path)
    if SNET_TAG not in sections:
        raise ContainerFormatError(f"{path}: no slice-selection section")
    tensors = sections[SNET_TAG]
    lift_w = tensors.get("lift_w")
    if lift_w is None or lift_w.ndim != 2:
        raise ContainerFormatError(f"{path}: no two-dimensional tensor lift_w")
    n_features, d_model = lift_w.shape
    model = SliceNetModel(n_features=n_features, d_model=d_model)
    for name, current in model.parameters().items():
        if name not in tensors:
            raise ContainerFormatError(f"{path}: missing tensor {name}")
        if tensors[name].shape != current.shape:
            raise ContainerFormatError(f"{path}: tensor {name} is not of shape {current.shape}")
        model.set_parameter(name, tensors[name])
    return model


def save_hopfield(we: np.ndarray, thresholds: np.ndarray, path: Union[str, Path]) -> None:
    """Write an allocator's weights and thresholds as section ``HOPF``."""
    write_container(path, {HOPF_TAG: {"we": we, "thresholds": thresholds}})


def load_hopfield(path: Union[str, Path]) -> tuple[np.ndarray, np.ndarray]:
    """The weights and thresholds of section ``HOPF``."""
    sections = read_container(path)
    if HOPF_TAG not in sections:
        raise ContainerFormatError(f"{path}: no allocator section")
    tensors = sections[HOPF_TAG]
    return tensors["we"], tensors["thresholds"]
