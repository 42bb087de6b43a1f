import numpy as np
import pytest

from twonorm.serialize import (
    csv_line,
    matrix_from_json,
    matrix_to_json,
    write_text,
)


def test_csv_line_renders_shortest_round_trip_reprs():
    # numpy scalars print as plain floats, not as np.float64(...).
    row = [0.1, 1.0, 1e300, np.float64(2.0**-52), float("inf"), float("-inf")]
    assert csv_line(row) == "0.1,1.0,1e+300,2.220446049250313e-16,inf,-inf\n"


def test_csv_line_floats_round_trip():
    for x in (0.1, 1.0 / 3.0, 2.0**-52, 1.2345678901234567e-8, np.float64(np.pi)):
        assert float(csv_line([x])) == x


def test_write_text_forces_unix_endings(tmp_path):
    p = tmp_path / "out.txt"
    write_text(p, "a\nb\n")
    assert p.read_bytes() == b"a\nb\n"


def test_matrix_round_trip():
    A = np.array([[1.0 + 2.0j, -0.5], [0.0, 3.0 - 1.0j]])
    back = matrix_from_json(matrix_to_json(A))
    assert np.array_equal(back, A)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json([])
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0]]])
    with pytest.raises(ValueError):
        matrix_from_json([[["1", "0"]]])
    with pytest.raises(ValueError):
        matrix_from_json("nope")


def test_csv_line_mixes_types():
    assert csv_line(["id", 3, 0.5]) == "id,3,0.5\n"
    assert csv_line([float("nan"), np.float64("nan"), 1.0]) == "nan,nan,1.0\n"
