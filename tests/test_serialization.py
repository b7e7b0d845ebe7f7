import numpy as np
import pytest

from ts3ra.hopfield import HopfieldAllocator
from ts3ra.serialization import (
    ContainerFormatError,
    load_hopfield,
    load_slicenet,
    read_container,
    save_hopfield,
    save_slicenet,
    write_container,
)
from ts3ra.slicenet import SliceNetModel


def test_container_round_trip(tmp_path):
    path = tmp_path / "params.bin"
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.normal(size=(3, 4)),
        "b": rng.normal(size=(7,)),
        "c": rng.normal(size=(2, 2, 2)),
    }
    write_container(path, {b"TEST": tensors})
    loaded = read_container(path)[b"TEST"]
    for name, arr in tensors.items():
        assert np.array_equal(loaded[name], arr)


def test_slicenet_round_trip(tmp_path):
    path = tmp_path / "model.bin"
    model = SliceNetModel(n_features=5, d_model=4, rng=np.random.default_rng(1))
    save_slicenet(model, path)
    clone = load_slicenet(path)
    feats = np.random.default_rng(2).uniform(0, 1, size=(3, 5))
    assert np.array_equal(model.logits(feats), clone.logits(feats))


def test_magic_is_stable(tmp_path):
    path = tmp_path / "model.bin"
    save_slicenet(SliceNetModel(rng=np.random.default_rng(3)), path)
    assert path.read_bytes()[:8] == b"TS3RA-SN"


def test_hopfield_round_trip(tmp_path):
    path = tmp_path / "allocator.bin"
    allocator = HopfieldAllocator()
    save_hopfield(allocator.we, allocator.thresholds, path)
    we, thetas = load_hopfield(path)
    assert np.array_equal(we, allocator.we)
    assert np.array_equal(thetas, allocator.thresholds)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ContainerFormatError):
        read_container(path)


def test_missing_section_rejected(tmp_path):
    path = tmp_path / "wrong.bin"
    write_container(path, {b"XXXX": {"t": np.zeros(3)}})
    with pytest.raises(ContainerFormatError):
        load_slicenet(path)
    with pytest.raises(ContainerFormatError):
        load_hopfield(path)


def test_every_truncation_rejected(tmp_path):
    path = tmp_path / "params.bin"
    write_container(path, {b"TEST": {"ab": np.arange(6.0).reshape(2, 3), "c": np.ones(2)}})
    whole = path.read_bytes()
    for n in range(len(whole)):
        path.write_bytes(whole[:n])
        with pytest.raises(ContainerFormatError):
            read_container(path)
