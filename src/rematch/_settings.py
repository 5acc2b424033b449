"""Settings that state their own valid values, and the one check of a scalar.

A dataclass field made by :func:`count`, :func:`real`, :func:`choice` or
:func:`switch` carries its type, its valid values and, when a command-line
flag sets it, that flag's help text in its metadata, so a config class
declares each setting, default, bounds and help together.
:func:`check` runs those checks over every field of an instance; the command
line reads the same metadata to type and document its flags, and
:func:`require` checks a library function's scalar argument by the same rules.
"""

from __future__ import annotations

from dataclasses import field, fields
from functools import lru_cache
from numbers import Integral, Real

import numpy as np


def count(default, least: int, help: str | None = None):
    """An integer setting of at least ``least``; a bool is not an integer."""
    return field(default=default, metadata={"type": int, "rule": least, "help": help})


def real(default, interval: str, help: str | None = None):
    """A real setting inside ``interval``, written like ``"(0, 1]"``.

    An int is accepted. An ``inf`` end must be open, and no comparison
    admits NaN, so an accepted value is always finite.
    """
    return field(default=default, metadata={"type": float, "rule": interval, "help": help})


def choice(default, options, help: str | None = None):
    """A setting that must equal one of ``options``."""
    return field(default=default, metadata={"choices": tuple(options), "help": help})


def switch(default: bool, help: str | None = None):
    """An on/off setting that must be a bool."""
    return field(default=default, metadata={"type": bool, "help": help})


@lru_cache(maxsize=None)
def _bounds(interval: str):
    """The two ends of an interval string, parsed once per string."""
    return tuple(float(end) for end in interval[1:-1].split(","))


def _problem(value, rule) -> str | None:
    """What ``value`` must do under ``rule``, or ``None`` when it obeys it; an exact
    float or int passes the type tests without the slower abstract-class check."""
    if isinstance(rule, str):
        low, high = _bounds(rule)
        valid = ((type(value) in (float, int) or isinstance(value, Real)
                  and not isinstance(value, bool))
                 and (low < value if rule[0] == "(" else low <= value)
                 and (value < high if rule[-1] == ")" else value <= high))
        return None if valid else f"be a real number in {rule}"
    if isinstance(rule, int):
        valid = ((type(value) is int or isinstance(value, Integral)
                  and not isinstance(value, bool)) and value >= rule)
        return None if valid else f"be an integer >= {rule}"
    if isinstance(rule, range):
        valid = _problem(value, rule.start) is None and value in rule
        return None if valid else f"lie in [{rule.start}, {rule.stop - 1}]"
    if "choices" in rule:
        return None if value in rule["choices"] else f"be one of {rule['choices']}"
    if rule["type"] is bool:
        return None if isinstance(value, bool) else "be a bool"
    return _problem(value, rule["rule"])


def require(name: str, value, rule) -> None:
    """Raise ``ValueError`` unless ``value`` obeys ``rule``: a least integer, an
    interval string such as ``"(0, 1]"``, a ``range`` or a setting field's metadata."""
    problem = _problem(value, rule)
    if problem is not None:
        raise ValueError(f"{name} must {problem}, got {value!r}")


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
