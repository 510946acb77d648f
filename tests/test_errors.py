import math

import numpy as np
import pytest

from motiongraph.errors import ValidationError, real


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
