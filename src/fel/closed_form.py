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
are exposed directly in terms of the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .precision import ErrBounded, PrecisionContext, integrate_finite

__all__ = [
    "TentParams",
    "closed_lower_bound",
    "closed_lower_bound_first_branch",
    "simple_lower_bound",
    "tent_reward",
    "tent_reward_quadrature",
    "tent_optimal",
    "implied_constant",
    "large_order_constant",
]

_CTX30 = PrecisionContext.make(30)


@dataclass(frozen=True)
class TentParams:
    """Width parameter ``epsilon > 0``, shift ``c >= 0`` and penalty in [0, 1).

    The closed form requires 0 <= c <= 1/epsilon.
    """

    epsilon: object
    shift: object
    penalty: object

    def __post_init__(self):
        with mp.workdps(max(mp.mp.dps, 30)):
            eps = mp.mpf(str(self.epsilon))
            c = mp.mpf(str(self.shift))
            A = mp.mpf(str(self.penalty))
            if not eps > 0:
                raise ValueError("epsilon must be positive")
            if not (0 <= c <= 1 / eps):
                raise ValueError("need 0 <= shift <= 1/epsilon")
            if A < 0:
                raise ValueError("penalty must be non-negative")
            object.__setattr__(self, "epsilon", eps)
            object.__setattr__(self, "shift", c)
            object.__setattr__(self, "penalty", A)


def _check_open_unit(A):
    A = mp.mpf(str(A))
    if not (0 < A < 1):
        raise ValueError("penalty must lie in (0, 1)")
    return A


def closed_lower_bound_first_branch(penalty, ctx: PrecisionContext = _CTX30):
    """The tent-derived branch 2 - 2(A+1)log((3-A)/(A+1))/|log A| + 2A."""
    with ctx.workprec():
        A = _check_open_unit(penalty)
        return 2 - 2 * (A + 1) * mp.log((3 - A) / (A + 1)) / abs(mp.log(A)) + 2 * A


def closed_lower_bound(penalty, ctx: PrecisionContext = _CTX30):
    """Generic lower bound for the extremal constant on 0 < penalty < 1."""
    with ctx.workprec():
        return max(closed_lower_bound_first_branch(penalty, ctx), mp.mpf(1))


def simple_lower_bound(penalty, ctx: PrecisionContext = _CTX30):
    """Weaker but simpler variant: 2 - 2 log 3 / |log penalty|."""
    with ctx.workprec():
        A = _check_open_unit(penalty)
        return 2 - 2 * mp.log(3) / abs(mp.log(A))


def tent_reward(tp: TentParams, ctx: PrecisionContext = _CTX30):
    """Closed form of the reward functional on the translated tent profile.

    Derived by elementary integration of (1 - |eps*(t+c)|)_+ e^{pi t} over
    the negative and positive half-lines (the profile is non-negative, and
    its underlying function has unit L^1 norm).
    """
    with ctx.workprec():
        eps, c, A = tp.epsilon, tp.shift, tp.penalty
        pi = mp.pi
        return (
            2
            - 4 * eps * mp.e ** (-pi * c) / pi
            - 2 * eps * (pi * c - 1) / pi
            + 2 * eps * mp.e ** (-pi * c - pi / eps) / pi
            + 2 * A * (
                1
                - eps * mp.e ** (-pi * c + pi / eps) / pi
                - eps * (pi * c - 1) / pi
            )
        )


def tent_reward_quadrature(tp: TentParams, ctx: PrecisionContext = _CTX30) -> ErrBounded:
    """Independent quadrature evaluation of the tent reward.

    Integrates (1 - |eps*(t+c)|)_+ e^{pi t} piecewise between the kinks at
    t = -c - 1/eps, -c, 0, -c + 1/eps, so each panel sees a smooth
    integrand; the L^1 normalization is exactly 1.
    """
    with ctx.workprec():
        eps, c, A = tp.epsilon, tp.shift, tp.penalty

        def profile(t):
            return max(1 - abs(eps * (t + c)), mp.mpf(0))

        f = lambda t: profile(t) * mp.e ** (mp.pi * t)
        left = -c - 1 / eps
        apex = -c
        right = -c + 1 / eps
        neg = integrate_finite(f, left, apex, ctx)
        n2 = integrate_finite(f, apex, min(right, mp.mpf(0)), ctx)
        neg_val = neg.value + n2.value
        neg_err = neg.err + n2.err
        if right > 0:
            pos = integrate_finite(f, 0, right, ctx)
        else:
            pos = ErrBounded(mp.mpf(0), mp.mpf(0))
        val = 2 * mp.pi * (neg_val - A * pos.value)
        err = 2 * mp.pi * (neg_err + A * pos.err)
        return ErrBounded(val, err)


def tent_optimal(penalty, ctx: PrecisionContext = _CTX30) -> TentParams:
    """Optimal tent width and shift for a penalty in (0, 1).

    epsilon = pi / log(1/A) and shift = log((3-A)/(A+1)) / pi, at which the
    closed form equals the first branch of :func:`closed_lower_bound`.
    """
    with ctx.workprec():
        A = _check_open_unit(penalty)
        eps = mp.pi / mp.log(1 / A)
        c = mp.log((3 - A) / (A + 1)) / mp.pi
        return TentParams(epsilon=eps, shift=c, penalty=A)


def implied_constant(bound, ctx: PrecisionContext = _CTX30):
    """Implied asymptotic constant bound^-2 from an extremal-constant bound."""
    with ctx.workprec():
        b = mp.mpf(str(bound))
        if not b > 0:
            raise ValueError("bound must be positive")
        return 1 / (b * b)


def large_order_constant(order: int, ctx: PrecisionContext = _CTX30, simple: bool = False):
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
