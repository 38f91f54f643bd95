import numpy as np
import pytest

from tubal import io as tio

from conftest import rand_tensor


def test_tensor_container_round_trip(tmp_path):
    x = rand_tensor(40, (3, 4, 5))
    path = tmp_path / "x.bin"
    tio.save_tensor(path, x)
    assert np.array_equal(tio.load_tensor(path), x)


def test_container_magic_mismatch(tmp_path):
    # A well-formed container of another kind: magic, dims (3, 1, 1),
    # three doubles.
    path = tmp_path / "v.bin"
    path.write_bytes(b"VEC1" + np.array([3, 1, 1], dtype="<u8").tobytes() + np.zeros(3, dtype="<f8").tobytes())
    with pytest.raises(ValueError):
        tio.load_tensor(path)


def test_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 24)
    with pytest.raises(ValueError):
        tio.load_tensor(path)


def test_container_rejects_truncated_payload(tmp_path):
    x = rand_tensor(42, (2, 2, 2))
    path = tmp_path / "x.bin"
    tio.save_tensor(path, x)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        tio.load_tensor(path)
