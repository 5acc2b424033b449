"""Settings that state their own valid values.

A dataclass field made by :func:`count`, :func:`real`, :func:`choice` or
:func:`switch` carries its type and its valid values in its metadata, so a
config class declares each setting, default and bounds together, in one
line. :func:`check` runs those checks over every field of an instance; the
command line reads the same metadata to type its flags.
"""

from __future__ import annotations

from dataclasses import field, fields
from numbers import Integral, Real

import numpy as np


def count(default, least: int):
    """An integer setting of at least ``least``; a bool is not an integer."""
    return field(default=default, metadata={"type": int, "least": least})


def real(default, interval: str):
    """A real setting inside ``interval``, written like ``"(0, 1]"``.

    An int is accepted. An ``inf`` end must be open, and no comparison
    admits NaN, so an accepted value is always finite.
    """
    low, high = (float(end) for end in interval[1:-1].split(","))
    return field(default=default, metadata={"type": float, "interval": interval,
                                            "low": low, "high": high})


def choice(default, options):
    """A setting that must equal one of ``options``."""
    return field(default=default, metadata={"choices": tuple(options)})


def switch(default: bool):
    """An on/off setting that must be a bool."""
    return field(default=default, metadata={"type": bool})


def _problem(value, meta: dict) -> str | None:
    """What ``value`` must be, or ``None`` when it is valid."""
    if "choices" in meta:
        return None if value in meta["choices"] else f"one of {meta['choices']}"
    kind = meta["type"]
    if kind is bool:
        return None if isinstance(value, bool) else "a bool"
    if kind is int:
        valid = (isinstance(value, Integral) and not isinstance(value, bool)
                 and value >= meta["least"])
        return None if valid else f"an integer >= {meta['least']}"
    interval, low, high = meta["interval"], meta["low"], meta["high"]
    valid = (isinstance(value, Real) and not isinstance(value, bool)
             and (low < value if interval[0] == "(" else low <= value)
             and (value < high if interval[-1] == ")" else value <= high))
    return None if valid else f"a real number in {interval}"


def check(settings) -> None:
    """Raise ``ValueError`` naming the first field of ``settings`` out of bounds.

    A valid numpy scalar is stored as the Python scalar it equals, so that
    the settings hold plain values and serialize as JSON.
    """
    for setting in fields(settings):
        value = getattr(settings, setting.name)
        problem = _problem(value, setting.metadata)
        if problem is not None:
            raise ValueError(f"{setting.name} must be {problem}, got {value!r}")
        if isinstance(value, np.generic):
            object.__setattr__(settings, setting.name, value.item())
