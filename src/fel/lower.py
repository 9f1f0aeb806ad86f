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
integrand is an odd polynomial times e^((1+a)u), whose antiderivative
e^((1+a)u) R(u) has its polynomial R computed in exact rationals once per
parameter set (:func:`_masses`).  The L^1 norm is the one quadrature: a single
integral over a quarter of the circle, written in ``tau`` in [0, 1] with a
rational integrand, evaluated on integers, an exact fixed-point kernel under
fixed-point panels, whose rounding bound is part of the radius
(:func:`l1_norm`).  ``value - err`` of
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
from mpmath.libmp import from_rational, round_nearest

from .precision import (
    INF,
    ErrBounded,
    PrecisionContext,
    as_decimal,
    as_penalty,
    integrate_fixed,
    isolate_sign_changes,
)

__all__ = [
    "LowerParams",
    "NotInClassError",
    "DegenerateError",
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
    """u-polynomial coefficients: coefficient of u^(2k+1) is b_(k+1)/(2k+1)!.

    In the number type of ``bs``: Fractions for the exact masses, ``mpf``
    for the profile, floats for the lower search.
    """
    return [bn / math.factorial(2 * k + 1) for k, bn in enumerate(bs)]


def _horner(cs, u):
    """sum_e cs[e] u^e, in the number type of ``cs`` and ``u``."""
    acc = 0
    for ce in reversed(cs):
        acc = acc * u + ce
    return acc


def _profile(a, c, coeffs, t):
    """The transform profile g((pi*t - c)/a) at ``t``, zero for pi*t > c,
    from parsed ``a``, ``c`` and :func:`_odd_coeffs` ``coeffs``."""
    u = (mp.pi * mp.mpf(t) - c) / a
    if u > 0:
        return mp.mpf(0)
    return mp.e**u * (_horner(coeffs, u * u) * u)


def _circle_kernel(bs, shift, P):
    """The L^1 integrand tau -> |Q(w)| / (1 + tau^2) on P-bit fixed point.

    ``bs`` are the coefficients as Fractions, scaled here by 2^shift:
    Q(w) = sum_n b_n 2^shift w^(n-1), w = v^2 and v = cos(phi) e^(-i phi)
    at phi = 2 atan(tau).  With s = tau^2, cos(phi) = (1 - s)/(1 + s) and
    sin(phi) = 2 tau/(1 + s), so a node costs two integer divisions and no
    cosine; then Horner in w on Python ints, ``math.isqrt`` for the modulus
    and one division by 1 + s.  Every product and quotient is floored to
    u = 2^-P, and each b_n 2^shift rounded to nearest.

    Returns ``(kernel, K)``: ``kernel`` maps an int t in [0, 2^P] to an
    int within K of 2^P times the exact integrand at tau = t u, where,
    with N terms and beta = sum |b_n| 2^shift,

        K = 20 N beta + 3N + 2.

    tau is exact, so s and 1 + s are; cos(phi) and sin(phi) come within
    u, v within 3u per part, w within 13u per part (so |w| <= 1 + 2u);
    each Horner step adds at most 19 beta u + sqrt(2) u + u/2, compounded
    by at most 1.01 over N steps, N (20 beta + 3) u in all; the square
    root and the last division add one u each.  On [0, 1] the integrand
    is at most beta and its slope at most 4 N beta (|dw/dtau| <= 4,
    |Q'| <= N beta, |d(1 + tau^2)^-1/dtau| < 1), the M and L of
    :func:`fel.precision.integrate_fixed`.
    """
    B = [round(bn * 2 ** (shift + P)) for bn in bs]
    beta = sum(map(abs, bs)) * 2**shift
    K = math.ceil(20 * len(B) * beta) + 3 * len(B) + 2
    top, rest = B[-1], B[-2::-1]
    one2 = 1 << 2 * P

    def kernel(t):
        s = t * t  # s 2^(2P)
        d = one2 + s
        c = ((one2 - s) << P) // d
        sn = (t << 2 * P + 1) // d
        vr, vi = c * c >> P, -(c * sn >> P)
        wr, wi = vr * vr - vi * vi >> P, vr * vi >> P - 1
        re, im = top, 0
        for bn in rest:
            re, im = (re * wr - im * wi >> P) + bn, re * wi + im * wr >> P
        return (math.isqrt(re * re + im * im) << 2 * P) // d

    return kernel, K


def l1_norm(p: LowerParams, ctx: PrecisionContext) -> ErrBounded:
    """L^1 norm of the underlying function, as one integral over the circle.

    With x = tan(phi)/(2a) the dilation cancels and
    ||f||_1 = (1/pi) int_0^(pi/2) |Q_b(w)| dphi, Q_b(w) = sum_n b_n w^(n-1),
    w = cos^2(phi) e^(-2i phi); tau = tan(phi/2) makes the integrand
    rational:

        ||f||_1 = (2/pi) int_0^1 |Q_b(w)| / (1 + tau^2) dtau,
        w = (1 - tau^2)^2 (1 - i tau)^4 / (1 + tau^2)^4.

    A finite interval and no tail, for every a and c.  The integral runs
    on integers: :func:`_circle_kernel` at P = ``prec + 32`` bits under
    :func:`fel.precision.integrate_fixed`; ``err`` is the quadrature's
    radius plus the fixed-point rounding bound R 2^-P, times 2/pi, where
    R = K + (5N + 6) beta + 1 + 2 panels adds the panels' node, weight and
    floor roundings to the kernel's K.  The target is absolute, so b is
    first scaled exactly by the power of two that brings its largest
    coefficient into (1/2, 2) when it is below that, and a norm under
    1/sqrt(2) is redone with b scaled by the power of two that brings it
    nearest 1 (b = 1e-200 gets the radius of b = 1).
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
    quad = integrate_fixed(kernel, P, ctx)
    beta = sum(map(abs, bs)) * 2**shift
    R = K + math.ceil((5 * len(bs) + 6) * beta) + 1 + 2 * quad.meta["panels"]
    return ErrBounded(mp.ldexp(2 * quad.value / mp.pi, -shift),
                      mp.ldexp(2 * (quad.err + mp.ldexp(R, -P)) / mp.pi, -shift))


def _sign_intervals(p: LowerParams, lo: Fraction, u_lo, ctx: PrecisionContext):
    """The profile's sign partition of the u-interval (lo, 0).

    ``lo`` is the exact left end and ``u_lo`` its value at working
    precision (call inside ``ctx.workprec()``).  Returns ``(edges, signs)``:
    the edges ``[u_lo, r_1, ..., r_m, 0]`` with the sign changes r_i
    isolated exactly, and the sign (+1 or -1) of the profile between each
    two.  The signs follow from the roots: just left of 0 the odd
    polynomial has the sign opposite to its lowest nonzero coefficient,
    and it flips at each returned root, since every returned root has odd
    multiplicity.
    """
    coeffs = _odd_coeffs([Fraction(bn) for bn in p.b])
    roots = isolate_sign_changes(coeffs, lo, ctx)
    last = -1 if next(ck for ck in coeffs if ck) > 0 else 1
    signs = [last * (-1) ** (len(roots) - i) for i in range(len(roots) + 1)]
    return [u_lo, *roots, mp.mpf(0)], signs


def _mass_poly(coeffs, lam):
    """R with (e^(lam u) R(u))' = G(u) e^(lam u), constant first.

    G(u) = sum_k c_k u^(2k+1) is the odd polynomial of :func:`_odd_coeffs`
    ``coeffs``; R_i = (g_i - (i + 1) R_(i+1)) / lam from the top degree
    down, in the number type of ``coeffs`` and ``lam``: exact on Fractions
    for the reward, float for the lower search.
    """
    R = [0] * (2 * len(coeffs))
    nxt = 0
    for i in reversed(range(len(R))):
        g = coeffs[i // 2] if i % 2 else 0
        R[i] = nxt = (g - (i + 1) * nxt) / lam
    return R


def _masses(p: LowerParams, ctx: PrecisionContext):
    """The reward's three profile masses, exact up to rounding.

    ``(head, pos_mass, neg_mass)``: the integral of the profile times
    e^(pi t) over t < 0, and its positive and negative parts over t > 0.
    In u = (pi t - c)/a each is ``pref (F(x2) - F(x1))`` over sign
    intervals, pref = (a/pi) e^c, with the antiderivative
    F(u) = e^(lam u) R(u) of :func:`_mass_poly` (F(-inf) = 0), its
    coefficients rounded once; each edge of the sign partition costs one
    exponential and one Horner.  Call inside ``ctx.workprec()``.
    """
    exact = _mass_poly(_odd_coeffs([Fraction(bn) for bn in p.b]), 1 + Fraction(p.a))
    R = [mp.make_mpf(from_rational(r.numerator, r.denominator, mp.mp.prec, round_nearest)) for r in exact]
    a, c, _ = p.mp_values()
    lam = 1 + a
    pref = (a / mp.pi) * mp.exp(c)

    def F(u):
        return mp.exp(lam * u) * _horner(R, u)

    if not c > 0:
        return pref * F(0), mp.mpf(0), mp.mpf(0)
    # the positive axis is u in (-c/a, 0)
    edges, signs = _sign_intervals(p, -Fraction(p.c) / Fraction(p.a), -c / a, ctx)
    Fs = [F(x) for x in edges]
    pos_mass = neg_mass = mp.mpf(0)
    for x1, x2, F1, F2, sign in zip(edges, edges[1:], Fs, Fs[1:], signs):
        if x2 > x1:
            if sign > 0:
                pos_mass += pref * (F2 - F1)
            else:
                neg_mass += pref * (F1 - F2)
    # clip tiny negative round-off in the masses
    return pref * Fs[0], max(pos_mass, mp.mpf(0)), max(neg_mass, mp.mpf(0))


def reward(p: LowerParams, penalty, ctx: PrecisionContext) -> ErrBounded:
    """The normalized reward functional of the family at ``penalty``.

    All three profile integrals are exact up to rounding, from one exact
    antiderivative polynomial (:func:`_masses`); only the L^1
    normalization uses quadrature, on integers (:func:`l1_norm`).  The
    sign intervals on the positive axis come from the exact isolation of
    :func:`fel.precision.isolate_sign_changes`, so no sign change can be
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
        round_eps = mp.mpf(10) ** (-(ctx.digits - 6))
        head, pos_mass, neg_mass = _masses(p, ctx)

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
