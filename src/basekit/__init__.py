"""Base-size analytics for finite permutation groups.

The package exports every name of its modules' ``__all__`` lists, and no
other.
"""

from . import bases, constructions, errors, formulas, group, perm
from .bases import *  # noqa: F403
from .constructions import *  # noqa: F403
from .errors import *  # noqa: F403
from .formulas import *  # noqa: F403
from .group import *  # noqa: F403
from .perm import *  # noqa: F403

__all__ = sorted({name for module in (errors, perm, group, bases, constructions, formulas)
                  for name in module.__all__})
