"""Global size caps for enumerations and grids.

Lattice balls and tensor grids grow exponentially; every operation that
materializes one checks against a cap.  The default is 10^7 entries and can
be overridden with the ``WIDTHLAB_CAP`` environment variable or per call.
"""

import os

from .errors import InvalidCapSetting

DEFAULT_CAP = 10_000_000


def active_cap(override=None) -> int:
    """Return the cap to enforce: explicit override > env var > default."""
    if override is not None:
        return int(override)
    env = os.environ.get("WIDTHLAB_CAP")
    try:
        cap = DEFAULT_CAP if env is None else int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InvalidCapSetting(f"WIDTHLAB_CAP must be a positive integer, got {env!r}")
    return cap
