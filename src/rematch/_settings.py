"""Settings that state their own valid values, and the one check of a scalar.

A dataclass field made by :func:`count`, :func:`real`, :func:`choice` or
:func:`switch` carries its type and its valid values in its metadata, so a
config class declares each setting, default and bounds together, in one
line. :func:`check` runs those checks over every field of an instance; the
command line reads the same metadata to type its flags, and :func:`require`
checks a library function's scalar argument by the same rules.
"""

from __future__ import annotations

from dataclasses import field, fields
from functools import lru_cache
from numbers import Integral, Real

import numpy as np


def count(default, least: int):
    """An integer setting of at least ``least``; a bool is not an integer."""
    return field(default=default, metadata={"type": int, "rule": least})


def real(default, interval: str):
    """A real setting inside ``interval``, written like ``"(0, 1]"``.

    An int is accepted. An ``inf`` end must be open, and no comparison
    admits NaN, so an accepted value is always finite.
    """
    return field(default=default, metadata={"type": float, "rule": interval})


def choice(default, options):
    """A setting that must equal one of ``options``."""
    return field(default=default, metadata={"choices": tuple(options)})


def switch(default: bool):
    """An on/off setting that must be a bool."""
    return field(default=default, metadata={"type": bool})


@lru_cache(maxsize=None)
def _bounds(interval: str):
    """The two ends of an interval string, parsed once per string."""
    return tuple(float(end) for end in interval[1:-1].split(","))


def _problem(value, rule) -> str | None:
    """What ``value`` must be under ``rule``, or ``None`` when it obeys it."""
    if isinstance(rule, str):
        low, high = _bounds(rule)
        valid = (isinstance(value, Real) and not isinstance(value, bool)
                 and (low < value if rule[0] == "(" else low <= value)
                 and (value < high if rule[-1] == ")" else value <= high))
        return None if valid else f"a real number in {rule}"
    if isinstance(rule, int):
        valid = (isinstance(value, Integral) and not isinstance(value, bool)
                 and value >= rule)
        return None if valid else f"an integer >= {rule}"
    if "choices" in rule:
        return None if value in rule["choices"] else f"one of {rule['choices']}"
    if rule["type"] is bool:
        return None if isinstance(value, bool) else "a bool"
    return _problem(value, rule["rule"])


def require(name: str, value, rule) -> None:
    """Raise ``ValueError`` unless ``value`` obeys ``rule``: a least integer,
    an interval string such as ``"(0, 1]"``, or a setting field's metadata."""
    problem = _problem(value, rule)
    if problem is not None:
        raise ValueError(f"{name} must be {problem}, got {value!r}")


def check(settings) -> None:
    """Raise ``ValueError`` naming the first field of ``settings`` out of bounds.

    A valid numpy scalar is stored as the Python scalar it equals, so that
    the settings hold plain values and serialize as JSON.
    """
    for setting in fields(settings):
        value = getattr(settings, setting.name)
        require(setting.name, value, setting.metadata)
        if isinstance(value, np.generic):
            object.__setattr__(settings, setting.name, value.item())
