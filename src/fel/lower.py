"""Lower-bound test family and its reward functional.

The family is defined through its transform profile: with dilation ``a > 0``,
translation ``c`` and odd-power coefficients ``b_1..b_N``,

    profile(t) = g((pi*t - c)/a),   g(u) = sum_n b_n u^(2n-1) e^u / (2n-1)!  (u <= 0),

so the profile is real, continuous and supported on ``t <= c/pi``.  The
underlying L^1 function has the closed form

    f(x) = (a/pi) e^(2icx) sum_n b_n * (-1) / (1 + 2iax)^(2n),

derived by linearity from the elementary transform pairs and verified against
direct numerical inversion in the test suite.

The reward functional rewards transform mass on the negative axis and
penalizes the negative part and (penalty-weighted) positive part on the
positive axis, normalized by the L^1 norm:

    reward = 2*pi/||f||_1 * ( I(-inf,0) - I_minus(0,inf) - penalty * I_plus(0,inf) )

with every piece integrated exactly: in the variable ``u = (pi*t - c)/a`` each
integrand is an odd polynomial times e^((1+a)u), handled by the closed-form
antiderivatives of :mod:`fel.precision`.  ``value - err`` of the result is a
certified lower bound for the extremal constant at that penalty, because the
constant is defined as a supremum over a class containing this family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import fone, ftwo, fzero, mpc_add_mpf, mpc_mpf_div, mpc_mul, mpc_square
from mpmath.libmp import mpf_add, mpf_div, mpf_hypot, mpf_mul, round_nearest as _RND

from .precision import (
    INF,
    ErrBounded,
    PrecisionContext,
    as_decimal,
    as_penalty,
    integrate_finite,
    isolate_sign_changes,
    odd_poly_eval,
    poly_exp_integral,
)

__all__ = [
    "LowerParams",
    "NotInClassError",
    "DegenerateError",
    "spectrum",
    "modulus",
    "l1_norm",
    "reward",
    "curve_samples",
    "INF",
]

class NotInClassError(ValueError):
    """Infinite penalty demands a non-positive profile on the positive axis."""


class DegenerateError(ValueError):
    """The parameter set has (numerically) vanishing L^1 norm."""


@dataclass(frozen=True)
class LowerParams:
    """Dilation ``a``, translation ``c`` and odd-power coefficients ``b``.

    Stored as exact decimals so serialized parameter files round-trip
    bit-identically.
    """

    a: Decimal
    c: Decimal
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", as_decimal(self.a))
        object.__setattr__(self, "c", as_decimal(self.c))
        object.__setattr__(self, "b", tuple(as_decimal(x) for x in self.b))
        if not self.a > 0:
            raise ValueError("dilation a must be positive")
        if len(self.b) < 1 or all(x == 0 for x in self.b):
            raise ValueError("need at least one nonzero coefficient")

    def mp_values(self):
        """(a, c, [b_n]) as mpmath scalars at the current working precision."""
        return (
            mp.mpf(str(self.a)),
            mp.mpf(str(self.c)),
            [mp.mpf(str(x)) for x in self.b],
        )

    def to_json(self) -> dict:
        return {"a": str(self.a), "c": str(self.c), "b": [str(x) for x in self.b]}

    @classmethod
    def from_json(cls, obj: dict) -> "LowerParams":
        return cls(a=Decimal(obj["a"]), c=Decimal(obj["c"]), b=tuple(Decimal(x) for x in obj["b"]))


def _odd_coeffs(bs):
    """u-polynomial coefficients: coefficient of u^(2k+1) is b_(k+1)/(2k+1)!."""
    return [bn / mp.factorial(2 * k + 1) for k, bn in enumerate(bs)]


def _exact_odd_coeffs(p: LowerParams):
    """The coefficients of :func:`_odd_coeffs` as exact fractions of the stored decimals."""
    return [Fraction(bn) / math.factorial(2 * k + 1) for k, bn in enumerate(p.b)]


def spectrum(p: LowerParams, t) -> object:
    """Transform profile at ``t``: g((pi*t - c)/a); zero for pi*t > c."""
    a, c, bs = p.mp_values()
    return _profile(a, c, _odd_coeffs(bs), t)


def _profile(a, c, coeffs, t):
    """:func:`spectrum` from parsed ``a``, ``c`` and :func:`_odd_coeffs` ``coeffs``."""
    u = (mp.pi * mp.mpf(t) - c) / a
    if u > 0:
        return mp.mpf(0)
    return mp.e**u * odd_poly_eval(coeffs, u)


def modulus(p: LowerParams, x) -> object:
    """|f(x)| of the underlying L^1 function: (a/pi)|sum b_n (1+2iax)^-2n|.

    One :func:`_modulus_kernel` evaluation at the working precision.
    """
    a, _, bs = p.mp_values()
    return mp.make_mpf(_modulus_kernel(a, bs)(mp.mpf(x)._mpf_))


def _modulus_kernel(a, bs):
    """The map x -> |f(x)| on raw libmp values (``mpf`` tuples in and out).

    |f(x)| = (a/pi) |sum_n b_n w^n| with w = 1/(1 + 2iax)^2, by Horner in w.
    The kernel uses the working precision current when it is built (build
    it inside ``ctx.workprec()``), round-nearest.  Its body is the chain of
    libmp calls that mpmath's operators make for that formula on ``mpf``
    and ``mpc`` objects, so each value is theirs bit for bit; 2a, a/pi and
    the tuples of ``bs`` are computed once, here.
    """
    prec = mp.mp.prec
    two_a = mpf_mul(ftwo, a._mpf_, prec, _RND)
    a_pi = mpf_div(a._mpf_, mp.pi._mpf_, prec, _RND)
    *rest, last = [bn._mpf_ for bn in bs]
    rest.reverse()
    first = (mpf_add(fzero, last, prec, _RND), fzero)  # 0 * w + b_N

    def kernel(x):
        w = mpc_mpf_div(fone, mpc_square((fone, mpf_mul(two_a, x, prec, _RND)), prec, _RND), prec, _RND)
        acc = first
        for bn in rest:
            acc = mpc_add_mpf(mpc_mul(acc, w, prec, _RND), bn, prec, _RND)
        re, im = mpc_mul(acc, w, prec, _RND)
        return mpf_mul(a_pi, mpf_hypot(re, im, prec, _RND), prec, _RND)

    return kernel


def _l1_tail_start(a, bs):
    """X beyond which the leading term dominates (no zeros of the sum).

    With r = 1/|1+2iax|^2, the first nonzero b_k dominates once
    sum_{n>k} |b_n| r^(n-k) < |b_k|; beyond that |f| is smooth and the
    compactified substitution x = X/u integrates the whole tail.
    """
    k0 = next(i for i, bn in enumerate(bs) if bn != 0)
    rest = [abs(bn) for bn in bs[k0 + 1:]]
    if not any(rest):
        r_star = mp.mpf("0.5")
    else:
        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(80):
            mid = (lo + hi) / 2
            s = mp.mpf(0)
            rp = mp.mpf(1)
            for an in rest:
                rp *= mid
                s += an * rp
            if s < abs(bs[k0]) / 2:
                lo = mid
            else:
                hi = mid
        r_star = lo
    if r_star <= 0:
        raise DegenerateError("cannot find a dominated tail region")
    x2 = (1 / r_star - 1) / (4 * a * a)
    return mp.sqrt(max(x2, mp.mpf(1))) * 2  # margin factor 2


def l1_norm(p: LowerParams, ctx: PrecisionContext) -> ErrBounded:
    """L^1 norm of the underlying function, with a certified tail.

    |f| is even, so the norm is twice the integral over [0, inf).  The head
    [0, X] is adaptive quadrature; the tail is integrated exactly under the
    compactification x = X/u (the integrand extends smoothly to u = 0 once X
    is past the dominated-tail point).  The term-wise majorant
    (a/pi) sum |b_n| (2a x)^(-2n) is evaluated at X as an independent upper
    bound on the tail and folded into the cross-check below.  The target is
    absolute, so a norm under 1/sqrt(2) is redone with b scaled exactly by
    the power of two that brings it nearest 1 (b = 1e-200 gets the radius of b = 1).
    """
    with ctx.workprec():
        a, _, bs = p.mp_values()
        if all(bn == 0 for bn in bs):
            raise DegenerateError("all coefficients vanish")
        X = _l1_tail_start(a, bs)
        l1 = _l1_quadrature(a, bs, X, ctx, 0)
        shift = -int(mp.nint(mp.log(l1.value, 2))) if l1.value > 0 else 0
        if shift > 0:
            l1 = _l1_quadrature(a, [mp.ldexp(bn, shift) for bn in bs], X, ctx, shift)
        return l1


def _l1_quadrature(a, bs, X, ctx: PrecisionContext, shift) -> ErrBounded:
    """:func:`l1_norm` of ``bs`` past the tail start ``X``, scaled by 2^-shift."""
    modulus_at = _modulus_kernel(a, bs)
    prec, Xv = mp.mp.prec, X._mpf_
    head = integrate_finite(lambda x: mp.make_mpf(modulus_at(x._mpf_)), 0, X, ctx)

    def tail_integrand(u):  # |f(X/u)| * X/u^2; the Gauss nodes never reach u = 0
        u = u._mpf_
        fx = modulus_at(mpf_div(Xv, u, prec, _RND))
        return mp.make_mpf(mpf_div(mpf_mul(fx, Xv, prec, _RND), mpf_mul(u, u, prec, _RND), prec, _RND))

    tail = integrate_finite(tail_integrand, 0, 1, ctx)
    # sanity: tail must sit below its term-wise majorant
    majorant = (a / mp.pi) * mp.fsum(
        abs(bn) * (2 * a * X) ** (-(2 * n)) * X / (2 * n - 1)
        for n, bn in enumerate(bs, start=1)
    )
    if tail.value > majorant * (1 + mp.mpf("1e-6")) + tail.err:
        raise RuntimeError("tail integral exceeds its majorant; inconsistent state")
    return ErrBounded(mp.ldexp(2 * (head.value + tail.value), -shift),
                      mp.ldexp(2 * (head.err + tail.err), -shift))


def _sign_intervals(p: LowerParams, lo: Fraction, u_lo, coeffs, ctx: PrecisionContext):
    """The u-intervals of (lo, 0) between the profile's sign changes.

    ``lo`` is the exact left end and ``u_lo`` its value at working precision
    (call inside ``ctx.workprec()``); ``coeffs`` are :func:`_odd_coeffs` at
    that precision.  The sign changes are isolated exactly; each interval
    comes as ``(u1, u2, sign)`` with the sign (+1, -1 or 0) of the
    polynomial at its midpoint.
    """
    roots = isolate_sign_changes(_exact_odd_coeffs(p), lo, 0, ctx)
    edges = [u_lo, *roots, mp.mpf(0)]
    out = []
    for u1, u2 in zip(edges[:-1], edges[1:]):
        v = odd_poly_eval(coeffs, (u1 + u2) / 2)
        out.append((u1, u2, (v > 0) - (v < 0)))
    return out


def reward(p: LowerParams, penalty, ctx: PrecisionContext) -> ErrBounded:
    """The normalized reward functional of the family at ``penalty``.

    All three integrals are evaluated exactly per sign interval through the
    closed-form antiderivatives; only the L^1 normalization uses quadrature.
    The sign intervals on the positive axis come from the exact isolation
    of :func:`fel.precision.isolate_sign_changes`, so no sign change can be
    missed and the radius carries only quadrature and rounding error.
    ``penalty`` may be a Fraction, a rational string like "1/3", a float, or
    ``INF`` (which requires the profile to be <= 0 on the positive axis and
    drops the penalty term).  ``meta["l1"]`` is the L^1 norm the reward was
    normalized by.
    """
    A = as_penalty(penalty)
    with ctx.workprec():
        if A is not INF:
            A = mp.mpf(A.numerator) / A.denominator
        a, c, bs = p.mp_values()
        lam = 1 + a
        coeffs = _odd_coeffs(bs)
        pref = (a / mp.pi) * mp.e**c
        round_eps = mp.mpf(10) ** (-(ctx.digits - 6))

        def piece(u1, u2):
            # integral of g(u) e^(a u) du scaled by e^c a/pi, exact
            return pref * mp.fsum(
                ck * poly_exp_integral(2 * k + 1, lam, u1, u2)
                for k, ck in enumerate(coeffs)
            )

        u_zero = -c / a  # u-image of t = 0
        head = piece(-mp.inf, min(mp.mpf(0), u_zero))

        pos_mass = mp.mpf(0)
        neg_mass = mp.mpf(0)
        if c > 0:
            exact_zero = -Fraction(p.c) / Fraction(p.a)
            for x1, x2, sign in _sign_intervals(p, exact_zero, u_zero, coeffs, ctx):
                if not x2 > x1:
                    continue
                val = piece(x1, x2)
                if sign >= 0:
                    pos_mass += val
                else:
                    neg_mass += -val
        # clip tiny negative round-off in the masses
        pos_mass = max(pos_mass, mp.mpf(0))
        neg_mass = max(neg_mass, mp.mpf(0))

        l1 = l1_norm(p, ctx)
        if l1.value <= 10 * (l1.err + l1.value * round_eps):
            raise DegenerateError("L^1 norm is numerically zero")

        if A is INF:
            # relative to the norm, as the reward is
            tol_class = l1.value * max(mp.mpf(ctx.target_abs_err), round_eps)
            if pos_mass > tol_class:
                raise NotInClassError(
                    "profile has positive mass %s on the positive axis" % pos_mass
                )
            num = head - neg_mass
        else:
            num = head - neg_mass - A * pos_mass
        num_err = abs(num) * round_eps
        value = 2 * mp.pi * num / l1.value
        err = 2 * mp.pi * (num_err / l1.value + abs(num) * l1.err / l1.value**2)
        return ErrBounded(value, err + abs(value) * round_eps, meta={"l1": l1})


def curve_samples(p: LowerParams, t_lo: float, t_hi: float, samples: int):
    """Uniform (t, profile(t)) samples for plot emission."""
    if samples < 1:
        raise ValueError("need at least one sample")
    with mp.workdps(30):
        a, c, bs = p.mp_values()
        coeffs = _odd_coeffs(bs)
        out = []
        for i in range(samples):
            t = t_lo + (t_hi - t_lo) * i / max(samples - 1, 1)
            out.append((t, float(_profile(a, c, coeffs, t))))
        return out
