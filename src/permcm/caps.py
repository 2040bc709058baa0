"""Size caps for the brute-force and exhaustive routines.

Every oracle in this package is exact but exponential, so each one is
guarded by a cap that keeps it at desk scale.  Caps can be raised through
the ``PERMCM_CAPS`` environment variable, a comma-separated list such as
``PERMCM_CAPS="vd=8,hochster=16"``.  Raising a cap never changes results,
only runtimes, but anything above the defaults is unsupported territory.
The whole variable is parsed on every read: an entry that is malformed,
names no cap, is negative or repeats a name is an error, even when the
cap it sets is not the one being read.
"""

from __future__ import annotations

import os
import re

DEFAULT_CAPS: dict[str, int] = {
    # verification sweeps (maximum n for S_n enumeration)
    "vd": 7,
    "cm": 7,
    "goren": 7,
    "nearly": 7,
    "ainv": 6,
    "bicm": 6,
    "hilb": 6,
    "covs": 6,
    "shed": 7,
    "gap": 8,
    "survey": 8,
    # algebraic oracles
    "hochster": 14,          # ambient vertices for the full Betti table
    "shelling": 8,           # facet count for the brute-force shelling test
    "linear_quotients": 20,  # generator count for the linear-quotients search
    "vertex_splittable": 20, # generator count for the splitting search
}

_ENV_VAR = "PERMCM_CAPS"


class CapExceededError(ValueError):
    """An input exceeded the configured size cap for an operation."""


def env_overrides() -> dict[str, int]:
    """The caps that PERMCM_CAPS sets, by name.

    Raises ValueError, naming the entry, for an entry that is not
    ``name=value``, names no cap, sets a value that is not a
    nonnegative integer, or repeats a name.
    """
    out: dict[str, int] = {}
    for item in os.environ.get(_ENV_VAR, "").split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not re.fullmatch(r"-?[0-9]+", value):
            raise ValueError(f"bad {_ENV_VAR} entry {item!r}: expected name=integer")
        if key not in DEFAULT_CAPS:
            raise ValueError(f"bad {_ENV_VAR} entry {item!r}: unknown cap {key!r}")
        if int(value) < 0:
            raise ValueError(f"bad {_ENV_VAR} entry {item!r}: a cap cannot be negative")
        if key in out:
            raise ValueError(f"bad {_ENV_VAR} entry {item!r}: {key!r} is set twice")
        out[key] = int(value)
    return out


def get_cap(name: str) -> int:
    """Return the cap for ``name``, honouring PERMCM_CAPS overrides."""
    if name not in DEFAULT_CAPS:
        raise KeyError(f"unknown cap {name!r}")
    return env_overrides().get(name, DEFAULT_CAPS[name])


def check_cap(name: str, value: int, what: str = "input") -> None:
    cap = get_cap(name)
    if value > cap:
        raise CapExceededError(
            f"{what} size {value} exceeds the {name!r} cap {cap} "
            f"(override with {_ENV_VAR}={name}=...)"
        )
