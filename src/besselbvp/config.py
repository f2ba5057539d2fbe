"""The one setting two callers choose differently, and the shared sizes.

``Settings`` carries the FEM degree, the single value callers set per call
(``DEFAULTS.with_overrides(fem_degree=4)``); ``pencil_modes`` is its only
reader, and passes the degree to ``fem.Space(degree=...)``, whose default
is ``DEFAULTS.fem_degree``.  Every threshold a verdict
reads is a module constant beside its check, and each result reports the
number its gate reads, so a caller who wants another threshold applies it
to that number.  The two sizes below are read by more than one module.
"""

import numbers
from dataclasses import dataclass, replace

from .errors import DomainError

DEFAULT_NODES = 256                # node count of a Space or RadialGrid
HALFLINE_DECAY_LENGTHS = 40.0      # truncated half-line length, in 1/Re(i xi)


def _check_count(name, value, least):
    """Refuse a count that is a bool, not an integer or below ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise DomainError(f"{name} must be an integer >= {least}, "
                          f"got {value!r}")


@dataclass(frozen=True)
class Settings:
    fem_degree: int = 5

    def __post_init__(self):
        _check_count("fem_degree", self.fem_degree, 2)

    def with_overrides(self, **kw):
        return replace(self, **kw)


DEFAULTS = Settings()
