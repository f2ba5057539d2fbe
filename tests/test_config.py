from dataclasses import fields

import numpy as np
import pytest

from besselbvp.config import DEFAULTS, Settings
from besselbvp.errors import DomainError


def test_settings_carry_only_the_fem_degree():
    # every threshold is a constant beside its check; a new knob is a
    # deliberate edit of this test
    assert tuple(f.name for f in fields(Settings)) == ("fem_degree",)
    assert DEFAULTS.fem_degree == 5


@pytest.mark.parametrize("key, value", [
    ("fem_degree", 3.5),                # once ran as degree 3
    ("fem_degree", 1),
])
def test_settings_refuse_bad_values(key, value):
    with pytest.raises(DomainError, match=key):
        DEFAULTS.with_overrides(**{key: value})


def test_settings_accept_the_least_values_and_numpy_scalars():
    s = DEFAULTS.with_overrides(fem_degree=np.int64(2))
    assert s.fem_degree == 2
    assert DEFAULTS.with_overrides(fem_degree=4).fem_degree == 4
