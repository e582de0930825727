"""PLY parsing and round-trip tests."""

import numpy as np
import pytest

from matchreg.errors import PlyParseError
from matchreg.fileio import read_ply, write_ply


def test_ply_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pc = rng.standard_normal((37, 3)) * 1.7e-3
    path = tmp_path / "cloud.ply"
    write_ply(path, pc)
    back = read_ply(path)
    np.testing.assert_array_equal(back, pc)  # repr round trip is exact


def test_ply_write_is_deterministic(tmp_path):
    pc = np.random.default_rng(1).standard_normal((10, 3))
    write_ply(tmp_path / "a.ply", pc)
    write_ply(tmp_path / "b.ply", pc)
    assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()


def test_ply_reads_float_properties(tmp_path):
    content = (
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "0 0.5 1\n-1 2 3\n"
    )
    path = tmp_path / "f.ply"
    path.write_text(content)
    np.testing.assert_allclose(read_ply(path), [[0, 0.5, 1], [-1, 2, 3]])


def test_ply_missing_magic(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("not a ply\n")
    with pytest.raises(PlyParseError) as e:
        read_ply(path)
    assert e.value.line == 1


def test_ply_bad_row_reports_line(tmp_path):
    content = (
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
        "0 0 0\n1 oops 2\n"
    )
    path = tmp_path / "bad.ply"
    path.write_text(content)
    with pytest.raises(PlyParseError) as e:
        read_ply(path)
    assert e.value.line == 9
    assert "9" in str(e.value)


def test_ply_count_mismatch(tmp_path):
    content = (
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
        "0 0 0\n"
    )
    path = tmp_path / "short.ply"
    path.write_text(content)
    with pytest.raises(PlyParseError):
        read_ply(path)

