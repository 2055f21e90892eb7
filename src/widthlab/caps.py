"""Global size caps for enumerations and grids.

Lattice balls and tensor grids grow exponentially; every operation that
materializes one checks against one cap, the CLI's and the library's alike:
the ``WIDTHLAB_CAP`` environment variable, else 10^7 entries.
"""

import os

from .errors import CapExceeded, InvalidCapSetting

DEFAULT_CAP = 10_000_000


def active_cap() -> int:
    """Return the cap to enforce: ``WIDTHLAB_CAP`` if set, else ``DEFAULT_CAP``."""
    env = os.environ.get("WIDTHLAB_CAP")
    try:
        cap = DEFAULT_CAP if env is None else int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InvalidCapSetting(f"WIDTHLAB_CAP must be a positive integer, got {env!r}")
    return cap


def _cap(what: str, size: int) -> None:
    """Refuse ``size`` past the active cap with :class:`CapExceeded` naming ``what``."""
    limit = active_cap()
    if size > limit:
        raise CapExceeded(f"{what} exceeds the cap {limit}")
