"""Closed-form constants: the tent-profile lower bound and the implied
asymptotic constants.

The tent profile is the triangle transform (1 - |eps*(t + shift)|)_+ of the
classical non-negative kernel; its reward functional has an elementary
closed form, and optimizing the width and shift yields the generic lower
bound

    max{ 2 - 2 (A+1) log((3-A)/(A+1)) / |log A| + 2A , 1 }          (0 < A < 1)

together with the weaker but simpler  2 - 2 log 3 / |log A|.  An extremal
constant bound b converts to the implied asymptotic constant b^-2; for
penalties 1/(order-1) with large integer order the sharp and simple variants
are exposed directly in terms of the order.  The tent reward itself and
its optimal width and shift, from which the first branch is derived, are
the tests' reference (``tests/oracles.py``), not part of this module.
"""

from __future__ import annotations

import mpmath as mp

from .precision import PrecisionContext

__all__ = [
    "closed_lower_bound",
    "closed_lower_bound_first_branch",
    "implied_constant",
    "large_order_constant",
]

def _check_open_unit(A):
    A = mp.mpf(str(A))
    if not (0 < A < 1):
        raise ValueError("penalty must lie in (0, 1)")
    return A


def closed_lower_bound_first_branch(penalty, ctx: PrecisionContext):
    """The tent-derived branch 2 - 2(A+1)log((3-A)/(A+1))/|log A| + 2A."""
    with ctx.workprec():
        A = _check_open_unit(penalty)
        return 2 - 2 * (A + 1) * mp.log((3 - A) / (A + 1)) / abs(mp.log(A)) + 2 * A


def closed_lower_bound(penalty, ctx: PrecisionContext):
    """Generic lower bound for the extremal constant on 0 < penalty < 1."""
    with ctx.workprec():
        return max(closed_lower_bound_first_branch(penalty, ctx), mp.mpf(1))


def implied_constant(bound, ctx: PrecisionContext):
    """Implied asymptotic constant bound^-2 from an extremal-constant bound."""
    with ctx.workprec():
        b = mp.mpf(str(bound))
        if not b > 0:
            raise ValueError("bound must be positive")
        return 1 / (b * b)


def large_order_constant(order: int, ctx: PrecisionContext, simple: bool = False):
    """Implied-constant bound for integer order >= 6.

    Sharp variant:  (1/4) (1 - (l/(l-1)) log((3l-4)/l) / log(l-1) + 1/(l-1))^-2.
    Simple variant: (1/4) (1 - log 3 / log(l-1))^-2.
    Both tend to 1/4 as the order grows.
    """
    if order < 6 or order != int(order):
        raise ValueError("order must be an integer >= 6")
    with ctx.workprec():
        l = mp.mpf(order)
        if simple:
            inner = 1 - mp.log(3) / mp.log(l - 1)
        else:
            inner = 1 - (l / (l - 1)) * mp.log((3 * l - 4) / l) / mp.log(l - 1) + 1 / (l - 1)
        return (1 / mp.mpf(4)) / (inner * inner)
