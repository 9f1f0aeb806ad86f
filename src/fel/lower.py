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
antiderivatives of :mod:`fel.precision`.  The L^1 norm is the one quadrature:
a single integral over a quarter of the circle, written in ``tau`` in [0, 1]
with a rational integrand, evaluated on a fixed-point integer kernel whose
rounding bound is part of the radius (:func:`l1_norm`).  ``value - err`` of
the result is a certified lower bound for the extremal constant at that
penalty, because the constant is defined as a supremum over a class
containing this family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

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

_GUARD_BITS = 32  # fixed-point bits of the L^1 kernel past the working precision


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
    """|f(x)| of the underlying L^1 function: (a/pi)|sum b_n w^n|, w = 1/(1+2iax)^2.

    Plain mpmath at the working precision, by Horner in w; :func:`l1_norm`
    integrates its own kernel instead.
    """
    a, _, bs = p.mp_values()
    w = 1 / (1 + 2j * a * mp.mpf(x)) ** 2
    acc = 0
    for bn in reversed(bs):
        acc = acc * w + bn
    return (a / mp.pi) * abs(acc * w)


def _circle_kernel(bs, shift, P):
    """The L^1 integrand tau -> |Q(w)| / (1 + tau^2) on P-bit fixed point.

    ``bs`` are the coefficients as Fractions, scaled here by 2^shift:
    Q(w) = sum_n b_n 2^shift w^(n-1), w = v^2 and v = cos(phi) e^(-i phi)
    at phi = 2 atan(tau).  With s = tau^2, cos(phi) = (1 - s)/(1 + s) and
    sin(phi) = 2 tau/(1 + s), so a node costs two integer divisions and no
    cosine; then Horner in w on Python ints, ``math.isqrt`` for the modulus
    and one division by 1 + s.  Every product and quotient is floored to
    u = 2^-P, and each b_n 2^shift rounded to nearest.

    Returns ``(kernel, K)``: ``kernel`` maps an ``mpf`` tau in [0, 1] to an
    ``mpf`` within K u of the exact integrand at tau, where, with N terms
    and beta = sum |b_n| 2^shift,

        K = 24 N beta + 3N + 2.

    Flooring tau to u moves the integrand by at most 4 N beta u (|dw/dtau|
    <= 4, |Q'| <= N beta, |d(1 + tau^2)^-1/dtau| < 1); cos(phi) and
    sin(phi) come within u, v within 3u per part, w within 13u per part
    (so |w| <= 1 + 2u); each Horner step adds at most
    19 beta u + sqrt(2) u + u/2, compounded by at most 1.01 over N steps,
    N (20 beta + 3) u in all; the square root and the last division add
    one u each.
    """
    B = [round(bn * 2 ** (shift + P)) for bn in bs]
    beta = sum(map(abs, bs)) * 2**shift
    K = math.ceil(24 * len(B) * beta) + 3 * len(B) + 2
    top, rest = B[-1], B[-2::-1]
    one2 = 1 << 2 * P

    def kernel(tau):
        t = to_fixed(tau._mpf_, P)
        s = t * t  # s 2^(2P)
        d = one2 + s
        c = ((one2 - s) << P) // d
        sn = (t << 2 * P + 1) // d
        vr, vi = c * c >> P, -(c * sn >> P)
        wr, wi = vr * vr - vi * vi >> P, vr * vi >> P - 1
        re, im = top, 0
        for bn in rest:
            re, im = (re * wr - im * wi >> P) + bn, re * wi + im * wr >> P
        return mp.make_mpf(from_man_exp((math.isqrt(re * re + im * im) << 2 * P) // d, -P))

    return kernel, K


def l1_norm(p: LowerParams, ctx: PrecisionContext) -> ErrBounded:
    """L^1 norm of the underlying function, as one integral over the circle.

    With x = tan(phi)/(2a) the dilation cancels and
    ||f||_1 = (1/pi) int_0^(pi/2) |Q_b(w)| dphi, Q_b(w) = sum_n b_n w^(n-1),
    w = cos^2(phi) e^(-2i phi); tau = tan(phi/2) makes the integrand
    rational:

        ||f||_1 = (2/pi) int_0^1 |Q_b(w)| / (1 + tau^2) dtau,
        w = (1 - tau^2)^2 (1 - i tau)^4 / (1 + tau^2)^4.

    A finite interval and no tail, for every a and c.  The integrand is
    :func:`_circle_kernel` at ``prec + 32`` bits under
    :func:`fel.precision.integrate_finite`; ``err`` is the quadrature's
    radius plus the kernel's rounding bound K 2^-P, times 2/pi.  The target
    is absolute, so b is first scaled exactly by the power of two that
    brings its largest coefficient into (1/2, 2) when it is below that, and
    a norm under 1/sqrt(2) is redone with b scaled by the power of two that
    brings it nearest 1 (b = 1e-200 gets the radius of b = 1).
    """
    bs = [Fraction(bn) for bn in p.b]
    top = max(abs(bn) for bn in bs)
    shift = max(0, top.denominator.bit_length() - top.numerator.bit_length())
    with ctx.workprec():
        l1 = _l1_circle(bs, shift, ctx)
        nearest_one = -int(mp.nint(mp.log(l1.value, 2))) if l1.value > 0 else 0
        if nearest_one > shift:
            l1 = _l1_circle(bs, nearest_one, ctx)
        return l1


def _l1_circle(bs, shift, ctx: PrecisionContext) -> ErrBounded:
    """:func:`l1_norm` of ``bs`` scaled by 2^shift, scaled back."""
    P = mp.mp.prec + _GUARD_BITS
    kernel, K = _circle_kernel(bs, shift, P)
    quad = integrate_finite(kernel, 0, 1, ctx)
    return ErrBounded(mp.ldexp(2 * quad.value / mp.pi, -shift),
                      mp.ldexp(2 * (quad.err + mp.ldexp(K, -P)) / mp.pi, -shift))


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
