"""Shipped reference parameter sets and published bound digits.

The five penalty values carry a reference lower test function (dilation,
translation, coefficients), a reference upper knot vector, and the published
five-digit bounds they reproduce.  Everything is stored as decimal strings
in version-controlled JSON so tests and the CLI never re-transcribe numbers.
"""

from __future__ import annotations

import functools
import json
from decimal import Decimal
from importlib import resources

from .lower import LowerParams
from .upper import UpperParams

__all__ = [
    "PENALTIES",
    "ORDER_TO_PENALTY",
    "lower_reference",
    "upper_reference",
    "interval",
]

PENALTIES = ("1/4", "1/3", "1/2", "1", "3")

# character order -> penalty key (penalty = 1/(order-1))
ORDER_TO_PENALTY = {2: "1", 3: "1/2", 4: "1/3", 5: "1/4"}


@functools.cache
def _load(name: str) -> dict:
    """The parsed JSON file ``name``, read once per process; callers only read it."""
    with resources.files("fel.data").joinpath(name).open("r") as fh:
        return json.load(fh)


def lower_reference() -> dict:
    """{penalty key: (published bound Decimal, LowerParams)}."""
    raw = _load("lower_reference.json")
    return {
        k: (Decimal(v["bound"]), LowerParams.from_json(v["params"]))
        for k, v in raw.items()
    }


def upper_reference() -> dict:
    """{penalty key: (published bound Decimal, UpperParams)}."""
    raw = _load("upper_reference.json")
    return {
        k: (Decimal(v["bound"]), UpperParams.from_json(v["params"]))
        for k, v in raw.items()
    }


def interval(key: str) -> tuple:
    """Published (lower, upper) bound pair for a penalty key."""
    lo = _load("lower_reference.json")[key]["bound"]
    hi = _load("upper_reference.json")[key]["bound"]
    return Decimal(lo), Decimal(hi)
