import math

import numpy as np
import pytest

from motiongraph.errors import ValidationError, column, real, reals


@pytest.mark.parametrize(
    "value, low, above, expected",
    [
        pytest.param(True, None, False, "x must be finite, got True", id="bool"),
        pytest.param("1.5", None, False, "x must be finite, got '1.5'", id="str"),
        pytest.param(None, 0, False, "x must be a finite number >= 0, got None", id="none"),
        pytest.param(math.nan, None, False, "x must be finite, got nan", id="nan"),
        pytest.param(math.inf, 0, True, "x must be a finite number > 0, got inf", id="inf"),
        pytest.param(-math.inf, None, False, "x must be finite, got -inf", id="minus-inf"),
        pytest.param(10**400, None, False, f"x must be finite, got {10**400!r}",
                     id="int-beyond-float"),
        pytest.param(-0.5, 0, False, "x must be a finite number >= 0, got -0.5", id="below"),
        pytest.param(0, 0, True, "x must be a finite number > 0, got 0", id="at-bound-above"),
        pytest.param(0, 0, False, 0.0, id="at-bound"),
        pytest.param(-7, None, False, -7.0, id="int-unbounded"),
        pytest.param(np.float32(2.5), 0, True, 2.5, id="numpy-float"),
        pytest.param(np.int64(3), 1, False, 3.0, id="numpy-int"),
    ],
)
def test_real(value, low, above, expected):
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as err:
            real("x", value, low, above)
        assert str(err.value) == expected
    else:
        number = real("x", value, low, above)
        assert number == expected and type(number) is float


#: A float64 input, which ``reals`` returns as the same object.
FLOATS = np.arange(6.0).reshape(2, 3)
#: A (2000, 15, 3) nested list, the size of a pose track's rotations, with one nan.
LARGE = np.zeros((2000, 15, 3)).tolist()
LARGE[1999][14][2] = math.nan


def _rule(shape):
    return f"x must be a finite real array of shape {shape}, got"


@pytest.mark.parametrize(
    "value, shape, expected",
    [
        pytest.param("1.5", (3,), f"{_rule((3,))} dtype <U3", id="str"),
        pytest.param(["0", "0", "2.5"], (3,), f"{_rule((3,))} dtype <U3", id="str-entries"),
        pytest.param(True, (3,), f"{_rule((3,))} dtype bool", id="bool"),
        pytest.param([0.0, True, 0.0], (3,), f"{_rule((3,))} a boolean entry",
                     id="bool-in-float-list"),
        pytest.param([[0.0, 1.0, 2.0], [0.0, np.True_, 1.0]], (None, 3),
                     f"{_rule((None, 3))} a boolean entry", id="numpy-bool-in-nested-list"),
        pytest.param(None, (3,), f"{_rule((3,))} dtype object", id="none"),
        pytest.param([[0.0, 1.0, 2.0], [0.0]], (None, 3), f"{_rule((None, 3))} a ragged nesting",
                     id="ragged"),
        pytest.param([1j, 0.0, 0.0], (3,), f"{_rule((3,))} dtype complex128", id="complex"),
        pytest.param([[0.0, 1.0, 2.0]], (3,), f"{_rule((3,))} shape (1, 3)", id="wrong-ndim"),
        pytest.param([[0.0, 1.0], [2.0, 3.0]], (None, 3), f"{_rule((None, 3))} shape (2, 2)",
                     id="wrong-length"),
        pytest.param([0.0, math.nan, 0.0], (3,), f"{_rule((3,))} nan, inf or -inf", id="nan"),
        pytest.param([math.inf, 0.0], (2,), f"{_rule((2,))} nan, inf or -inf", id="inf"),
        pytest.param(np.array([0.0, -math.inf]), (2,), f"{_rule((2,))} nan, inf or -inf",
                     id="minus-inf"),
        pytest.param(LARGE, (None, 15, 3), f"{_rule((None, 15, 3))} nan, inf or -inf",
                     id="large-list"),
        pytest.param(np.arange(3, dtype=np.int32), (3,), np.array([0.0, 1.0, 2.0]),
                     id="numpy-int-array"),
        pytest.param([[1, 2, 3]], (None, 3), np.array([[1.0, 2.0, 3.0]]), id="int-list"),
        pytest.param(np.zeros((0, 3)), (None, 3), np.zeros((0, 3)), id="no-rows"),
        pytest.param(FLOATS, (None, 3), FLOATS, id="float64-uncopied"),
    ],
)
def test_reals(value, shape, expected):
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as err:
            reals("x", value, shape)
        assert str(err.value) == expected
        assert len(str(err.value).encode()) < 200
    else:
        array = reals("x", value, shape)
        assert array.dtype == np.float64 and np.array_equal(array, expected)
        if isinstance(value, np.ndarray) and value.dtype == np.float64:
            assert array is value


#: An int64 input, which ``column`` returns as the same object.
INTS = np.arange(3)


@pytest.mark.parametrize(
    "value, dtype, expected",
    [
        pytest.param([[1], [2, 3]], np.int64, "x must be a 1-D column of integers within "
                     "int64, got a ragged nesting", id="ragged"),
        pytest.param(INTS, np.int64, INTS, id="int64-uncopied"),
        pytest.param([0, 2], float, np.array([0.0, 2.0]), id="ints-as-reals"),
        pytest.param(np.array(["a", "bc"], dtype=object), str, np.array(["a", "bc"]),
                     id="object-array-of-strings"),
    ],
)
def test_column(value, dtype, expected):
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as err:
            column("x", value, dtype)
        assert str(err.value) == expected
    else:
        got = column("x", value, dtype)
        # A str column's dtype has the length of its longest word.
        assert got.dtype == np.dtype(dtype) or got.dtype.kind == np.dtype(dtype).kind == "U"
        assert got.tolist() == expected.tolist()
        assert (got is value) == (value is INTS)
