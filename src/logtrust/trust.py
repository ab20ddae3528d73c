"""Local trust values and how violations erode them.

Trust is a per-peer number in [0, 1] held locally by whoever runs an
audit.  It is never exchanged; each peer maintains its own view.  Every
detected violation instance applies one decrement, so a peer caught
twice ends up lower than a peer caught once.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

from .events import _Record, _fill

MAX_TRUST = 1.0

# An assessor's view of the peers it has audited.  Absent peers are
# implicitly at the model's maximum.
TrustTable = dict[str, float]


@runtime_checkable
class TrustModel(Protocol):
    """A rule for lowering a trust value after one violation.

    ``on_violation`` must be strictly decreasing for positive values and
    must never go below zero or above ``max_value``.  ``parse_trust_model``
    reads the label ``describe`` returns back to an equal model.
    """

    max_value: float

    def on_violation(self, current: float) -> float:
        ...

    def describe(self) -> str:
        ...


def _number(value: float) -> str:
    """``value`` in short ``:g`` form when that parses back to it, else its ``repr``."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


class MultiplicativeTrust(_Record):
    """Halving-style decay: each violation multiplies trust by a factor."""

    __slots__ = ("factor", "max_value")
    factor: float
    max_value: float

    def __init__(self, factor: float = 0.5, max_value: float = MAX_TRUST):
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must lie strictly between 0 and 1")
        if not 0.0 < max_value <= 1.0:
            raise ValueError("max_value must lie in (0, 1]")
        _fill(self, factor, max_value)

    def on_violation(self, current: float) -> float:
        lowered = current * self.factor
        if lowered == current and current > 0.0:
            # Among subnormals the product can round back up to ``current``.
            lowered = math.nextafter(current, 0.0)
        return min(self.max_value, max(0.0, lowered))

    def describe(self) -> str:
        return f"multiplicative:{_number(self.factor)}"


class FixedStepTrust(_Record):
    """Linear decay: each violation subtracts a fixed delta, floored at 0."""

    __slots__ = ("delta", "max_value")
    delta: float
    max_value: float

    def __init__(self, delta: float = 0.2, max_value: float = MAX_TRUST):
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if not 0.0 < max_value <= 1.0:
            raise ValueError("max_value must lie in (0, 1]")
        # No trust value up to max_value has a wider float spacing, so a
        # delta of at least that spacing lowers every positive value.
        if delta < math.ulp(max_value):
            raise ValueError(
                f"delta must be at least {math.ulp(max_value)!r}, "
                "or a violation would leave trust unchanged"
            )
        _fill(self, delta, max_value)

    def on_violation(self, current: float) -> float:
        return min(self.max_value, max(0.0, current - self.delta))

    def describe(self) -> str:
        return f"fixed:{_number(self.delta)}"


DEFAULT_TRUST_MODEL = MultiplicativeTrust()


def parse_trust_model(text: str) -> TrustModel:
    """Parse a model spec like ``multiplicative:0.5`` or ``fixed:0.2``.

    The bare names select the default parameter.
    """
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    arg = arg.strip()
    try:
        if name == "multiplicative":
            return MultiplicativeTrust(float(arg)) if arg else MultiplicativeTrust()
        if name == "fixed":
            return FixedStepTrust(float(arg)) if arg else FixedStepTrust()
    except ValueError as exc:
        raise ValueError(f"invalid trust model {text!r}: {exc}") from None
    raise ValueError(
        f"unknown trust model {text!r}; expected multiplicative[:factor] or fixed[:delta]"
    )
