"""Arbitrary-precision scalar kernels shared by every other module.

Three primitives, at the working precision of a :class:`PrecisionContext`
(its digits, and the absolute error goal ten digits short of them), with
explicit absolute-error radii where a result is not exact:

* adaptive 24-point Gauss-Legendre quadrature over [0, 1] on one panel
  kind, exact integer panels on P-bit fixed point, each checked against
  the sum over its halves (:func:`integrate_fixed`, with a stated
  rounding bound); the rule is mpmath's own, rounded to P bits
  (:func:`gauss_legendre`),
* exact isolation of the sign changes of odd-power polynomials on
  (lo, 0) (Sturm sequences in rational arithmetic, no sampling),
* the safeguarded Newton polish of a bracketed 1-D maximum;

plus the two normalisers every parameter type shares: penalties to exact
fractions (or :data:`INF`) and knots or coefficients to exact decimals.

Error accounting is first-order honest rather than interval arithmetic: a
reported radius is an estimate that must survive a precision-doubling
recomputation (the value may not move by more than the radius).  Callers
add the rounding bounds they can state: the L^1 norm of :mod:`fel.lower`
adds its kernel's and :func:`integrate_fixed`'s fixed-point bounds to the
quadrature radius; elsewhere rounding is covered by a relative
``round_eps`` of a few digits below the working precision.  Routines that
cannot meet their tolerance within the refinement budget raise
:class:`Unconverged` instead of returning a silently degraded value.

Everything here is a pure function of its arguments; contexts are immutable
and safe to share across worker processes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Sequence

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre

__all__ = [
    "INF",
    "as_penalty",
    "as_decimal",
    "PrecisionContext",
    "ErrBounded",
    "Unconverged",
    "gauss_legendre",
    "integrate_fixed",
    "isolate_sign_changes",
    "maximize_scalar",
]

_GL_DEGREE = 4          # mpmath's degree of the 24-point panel rule, checked against its two halves
_MAX_DEPTH = 48         # panel bisection depth limit
_PANEL_BUDGET = 60_000  # total panels per integral


INF = mp.inf

_INF_NAMES = ("inf", "oo", "infinity")


def as_penalty(penalty):
    """A penalty as an exact ``Fraction``, or ``INF``.

    Accepts ``INF`` (or the strings "inf", "oo", "infinity"), a Fraction, an
    int, a float, or a rational string such as "1/3".  Callers convert the
    result to ``mpf`` or ``float`` themselves.
    """
    if penalty is INF or penalty in _INF_NAMES or penalty == INF:
        return INF
    try:
        pen = Fraction(penalty)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ValueError("cannot parse penalty %r: %s" % (penalty, e)) from None
    if pen < 0:
        raise ValueError("penalty must be non-negative")
    return pen


def as_decimal(x) -> Decimal:
    """Exact decimal of a Decimal, a string, or a float (through its repr)."""
    if isinstance(x, Decimal):
        return x
    if isinstance(x, float):
        return Decimal(repr(x))
    return Decimal(str(x))


class Unconverged(RuntimeError):
    """Raised when a kernel exhausts its refinement budget."""


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits, at least 30.

    The absolute error goal :attr:`target_abs_err` follows from it:
    ``10**-(digits - 10)``, ten digits short of the working precision.
    """

    digits: int

    def __post_init__(self):
        if self.digits < 30:
            raise ValueError("digits must be >= 30, got %r" % (self.digits,))

    @property
    def target_abs_err(self) -> float:
        """The absolute error goal ``10**-(digits - 10)``."""
        return 10.0 ** -(self.digits - 10)

    def workprec(self):
        """mpmath precision guard: ``with ctx.workprec(): ...``."""
        return mp.workdps(self.digits)


@dataclass(frozen=True)
class ErrBounded:
    """A computed value with a claimed absolute-error radius.

    ``meta`` carries what the producer reports beside the number: the
    reward's L^1 norm, the sup-norm's certificate inputs, the argmax of a
    maximization.
    """

    value: object  # mpf
    err: object    # mpf >= 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not mp.isfinite(self.err):
            raise ValueError("error radius %s is not finite" % (self.err,))


@functools.lru_cache(maxsize=128)
def gauss_legendre(P: int):
    """The 24-point Gauss-Legendre rule's positive-half nodes and weights on
    [-1, 1], on P-bit fixed point.

    The rule is mpmath's own (``GaussLegendre.calc_nodes`` at degree
    ``_GL_DEGREE``, 3 * 2^3 = 24 points) at P + 20 bits, and each node x and
    weight w becomes the int nearest to ``x 2^P`` (or ``w 2^P``): within 1/2
    of it, up to the rule's own error at P + 20 bits, some 1e-8 of a unit.
    The negative nodes are the mirror images.  The tuple is shared by every
    caller: do not mutate it.
    """
    def nearest(x):
        man, exp = x.man_exp
        s = exp + P
        return man << s if s >= 0 else (man + (1 << -s - 1)) >> -s

    rule = GaussLegendre(mp.mp).calc_nodes(_GL_DEGREE, P + 20)
    return tuple((nearest(x), nearest(w)) for x, w in rule if x > 0)


def _fixed_panel(f, lo, hi, nodes, P):
    """24-point Gauss-Legendre value of ``f`` on [lo u, hi u], u = 2^-P.

    ``lo`` and ``hi`` are ints with ``lo + hi`` even, so the middle
    ``m = (lo + hi) / 2`` is exact; ``nodes`` are the ints of
    :func:`gauss_legendre`, and ``f`` maps an int ``t`` to an int
    near ``F(t u) / u``.  With h = (hi - lo) u / 2 the nodes are
    ``m +- d_k``, d_k = floor(h X_k), the sum
    ``S = sum_k W_k (f(m + d_k) + f(m - d_k))`` is exact, and the panel is
    the one floor ``(hi - lo) S / 2^(2P + 1)``: an int, the rule's value
    over u.

    Rounding bound.  Let ``f(t) u`` be within E u of F(t u) at every node,
    with |F| <= M and |F'| <= L on the panel, and h <= 1/2.  Then:

    * node: X_k u is within u/2 of x_k, so d_k u is within h u/2 + u
      <= 5u/4 of h x_k, and F there within 5 L u / 4: with the kernel,
      f u is within D u of F at the exact node, D = E + 5L/4;
    * weight: W_k u is within u/2 of w_k, on a sum of at most 2(M + D u),
      and the twelve positive-half weights sum to 1, so S u^2 is within
      12 (M + D u) u + 2 D u of the rule's sum;
    * final floor: one u.

    So the panel is within h (12 M + 2 D + 1) u + u of the rule's value
    on [lo u, hi u] when D u <= 1/12.
    """
    w2 = hi - lo
    mid = lo + hi >> 1
    acc = 0
    for x, w in nodes:
        d = w2 * x >> P + 1
        acc += w * (f(mid + d) + f(mid - d))
    return w2 * acc >> 2 * P + 1


def integrate_fixed(f: Callable, P: int, ctx: PrecisionContext) -> ErrBounded:
    """Adaptive panel quadrature over [0, 1] on P-bit fixed point.

    ``f`` maps an int ``t`` to an int near ``F(t 2^-P) 2^P``.  Panels are
    bisected from [0, 2^P], so their ends are exact ints, and each is
    :func:`_fixed_panel`, an exact integer sum with one floor.  Every panel
    carries its rule's value; the rule on its two halves gives the panel's
    estimate, and the distance between the two is its error estimate
    (Gander and Gautschi, BIT 40 (2000)), with no rounding of the sums.  A
    panel is accepted when that distance is within its width-proportional
    share of the absolute ``ctx.target_abs_err``, or within four roundings
    of the working precision (``round_eps``, two digits below it) of its
    value: splitting cannot beat the roundoff of the caller's integrand,
    and the distance still lands in the radius, with ``|fine| round_eps``.
    Otherwise it is bisected, each half keeping its value.  A call costs
    ``24 + 48 * meta["panels"]`` evaluations of ``f``, and raises
    :class:`Unconverged` when the bisection depth or the panel budget is
    exhausted.

    ``value`` is the exact sum times 2^-P; ``err`` is the quadrature's
    radius only, and the caller adds the rounding bound.  With ``f(t)``
    within E of ``F(t 2^-P) 2^P``, |F| <= M and |F'| <= L on [0, 1], the
    halves of the accepted panels have half-widths h summing to 1/2, and
    there are at most ``2 meta["panels"]`` of them, one floor each; so by
    :func:`_fixed_panel` the value is within

        (E + 5L/4 + 6M + 1 + 2 meta["panels"]) 2^-P

    of the sum of their rules.
    """
    with ctx.workprec():
        nodes = gauss_legendre(P)
        half_target = mp.mpf(ctx.target_abs_err) / 2
        round_eps = mp.mpf(10) ** (-ctx.digits + 2)
        one = 1 << P
        stack = [(0, one, 0, _fixed_panel(f, 0, one, nodes, P))]
        value = 0
        err = mp.mpf(0)
        panels = 0
        while stack:
            lo, hi, depth, coarse = stack.pop()
            panels += 1
            if panels > _PANEL_BUDGET:
                raise Unconverged("quadrature panel budget exhausted on [0, 1]")
            mid = lo + hi >> 1
            left = _fixed_panel(f, lo, mid, nodes, P)
            right = _fixed_panel(f, mid, hi, nodes, P)
            fine = left + right
            e = abs(fine - coarse)
            if e <= half_target * (hi - lo) or e <= abs(fine) * round_eps * 4:
                value += fine
                err += e + abs(fine) * round_eps
            elif depth >= _MAX_DEPTH:
                raise Unconverged(
                    "quadrature did not converge at depth %d near [%s, %s]"
                    % (depth, mp.ldexp(lo, -P), mp.ldexp(hi, -P))
                )
            else:
                stack.append((lo, mid, depth + 1, left))
                stack.append((mid, hi, depth + 1, right))
        return ErrBounded(mp.ldexp(value, -P), mp.ldexp(err, -P), meta={"panels": panels})


def _bisect_root(p, lo, hi, slo, target):
    """Bisect a bracketed sign change to absolute width ``target``."""
    while hi - lo > target:
        mid = (lo + hi) / 2
        sm = p(mid)
        if sm == 0:
            return mid
        if (sm > 0) == (slo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _poly_rem(num, den):
    """Remainder of polynomials given as coefficient lists, constant first."""
    num = list(num)
    while len(num) >= len(den):
        f = num[-1] / den[-1]
        for i, d in enumerate(den, len(num) - len(den)):
            num[i] -= f * d
        while num and num[-1] == 0:
            num.pop()
    return num


def _sturm_chain(q):
    """Sturm chain of ``q`` (ending in gcd(q, q')), as coprime integer polynomials.

    Between two points where ``q`` does not vanish, the drop in sign
    variations along the chain counts the distinct roots of ``q``, whatever
    their multiplicity.
    """
    chain = [q, [k * c for k, c in enumerate(q)][1:]]
    while r := _poly_rem(chain[-2], chain[-1]):
        chain.append([-c for c in r])
    out = []
    for p in chain:
        m = math.lcm(*(c.denominator for c in p))  # a positive multiple keeps the signs
        ints = [int(c * m) for c in p]
        out.append([c // math.gcd(*ints) for c in ints])
    return out


def _sign_at(p, x: Fraction) -> int:
    """Exact sign of the integer polynomial ``p`` at the rational ``x``."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(p):  # acc = d^deg * p(n/d)
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _isolate(chain, hi: Fraction):
    """Disjoint intervals (a, b) of u, one per distinct root u^2 of
    ``chain[0]`` with u in (0, hi), by Sturm-count bisection.  ``chain[0]``
    must not vanish at 0 or at hi^2, and vanishes at no returned end."""

    def variations(u):
        v = u * u
        signs = [s for s in (_sign_at(p, v) for p in chain) if s]
        return sum(s1 != s2 for s1, s2 in zip(signs, signs[1:]))

    out = []
    stack = [(Fraction(0), hi, variations(Fraction(0)), variations(hi))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 1:
            out.append((a, b))
        elif va - vb > 1:
            m = (a + b) / 2
            while _sign_at(chain[0], m * m) == 0:
                m = (a + m) / 2
            vm = variations(m)
            stack += [(a, m, va, vm), (m, b, vm, vb)]
    return out


def isolate_sign_changes(odd_coeffs: Sequence, lo, ctx: PrecisionContext) -> tuple:
    """The sign changes of an odd-power polynomial inside (lo, 0), sorted.

    Exact isolation in rational arithmetic: the coefficients and ``lo`` are
    exact rationals (ints, Fractions, Decimals or strings), and the
    polynomial is ``u * q(u^2)``.  The roots of ``q(u^2)`` are isolated in
    ``0 < u < 2^k``, the power of two past ``|lo|``, by Sturm-sequence
    bisection, which counts distinct roots, so roots of every multiplicity
    and at any separation are found.  A root is kept only when ``q`` has
    opposite exact signs at the ends of its isolating interval, i.e. when
    its multiplicity is odd, and when it lies strictly below ``|lo|``; its
    mirror ``-u`` is then a sign change, bisected on exact signs to
    ``ctx.target_abs_err``.
    """
    q = [Fraction(c) for c in odd_coeffs]
    while q and q[-1] == 0:
        q.pop()
    if not q:
        raise ValueError("polynomial is identically zero")
    cut = -Fraction(lo)
    if not cut > 0:
        return ()
    while q[0] == 0:  # factors of u^2 only raise the order of u = 0, an end
        q.pop(0)
    roots = []
    if len(q) > 1:
        chain = _sturm_chain(q)
        sign = lambda u: _sign_at(chain[0], u * u)
        top = Fraction(2) ** math.ceil(cut).bit_length()
        while sign(top) == 0:  # a root there lies outside (lo, 0)
            top *= 2
        target = Fraction(ctx.target_abs_err)
        for a, b in _isolate(chain, top):
            sa = sign(a)
            if sa == sign(b):
                continue  # even multiplicity: q touches zero without a flip
            if b > cut:  # settle the root's side of |lo|
                if a >= cut or sign(cut) != -sa:
                    continue  # the root is |lo| or past it
                b = cut
            roots.append(-_bisect_root(sign, a, b, sa, target))
    with ctx.workprec():
        return tuple(mp.mpf(r.numerator) / r.denominator for r in sorted(roots))


def maximize_scalar(f: Callable, slope: Callable, start, lo, hi, ctx: PrecisionContext) -> ErrBounded:
    """Polish a local maximum of smooth ``f`` on [lo, hi] by safeguarded Newton.

    ``slope(t)`` returns ``(f'(t), f''(t))``.  Newton's step ``-f'/f''``
    runs from ``start`` (clamped into the bracket) inside a sign bracket
    ``[a, b]`` of ``f'``: a point where ``f`` rises moves ``a`` up, one
    where it falls moves ``b`` down.  A step is not taken when ``f'' >= 0``
    or when it leaves the bracket; the iterate then moves to the uphill
    end of [lo, hi] while that end's slope is unknown (a clamp), and to
    the middle of the bracket otherwise.  The gap at an iterate is the
    Newton a-posteriori estimate ``f'^2 / (2|f''|)`` of how far ``f`` lies
    below the maximum, capped by the rise ``|f'| w + max(f'', 0) w^2 / 2``
    that the local quadratic allows across the bracket's width ``w``.  The
    iteration stops once the gap is below the rounding level of
    ``f(start)``, once the bracket is narrower than
    ``(hi - lo) 10^(-2 digits/3)``, or after as many evaluations as the
    working precision has bits.  From the float witness of a shipped
    sup-norm peak that takes one to five slopes.

    The returned value is ``f`` at the final iterate, and never below
    ``f(start)``: when the iteration ends lower, ``start`` is returned.
    Its radius is the gap plus ``|value|`` times a rounding level three
    digits below the working precision plus ``ctx.target_abs_err``.
    ``meta`` holds the ``argmax``, a ``boundary`` flag, set when the
    maximum is an end of [lo, hi] whose slope does not point back inside
    (a legal outcome for monotone ``f``), and ``evals``, the calls of ``f``
    and ``slope`` together.
    """
    with ctx.workprec():
        lo = mp.mpf(lo)
        hi = mp.mpf(hi)
        if not lo < hi:
            raise ValueError("empty bracket")
        round_eps = mp.mpf(10) ** (-(ctx.digits - 3))
        wtol = max((hi - lo) * mp.mpf(10) ** (-(2 * ctx.digits) // 3), mp.mpf(10) ** (-(ctx.digits + 5)))
        t0 = t = min(max(mp.mpf(start), lo), hi)
        v0 = mp.mpf(f(t0))
        tol = abs(v0) * round_eps
        a, b = lo, hi
        seen = set()  # the ends of [lo, hi] whose slope is known
        evals, gap0 = 1, None
        while True:
            d1, d2 = slope(t)
            evals += 1
            if t in (lo, hi):
                seen.add(t)
            if d1 > 0 or (d1 == 0 and d2 > 0):  # rising, or a minimum: look right
                a = t
            elif d1 < 0:
                b = t
            gap = abs(d1) * (b - a) + max(d2, 0) * (b - a) ** 2 / 2
            if d2 < 0:
                gap = min(gap, d1 * d1 / (-2 * d2))
            if gap0 is None:
                gap0 = gap
            if gap <= tol or b - a <= wtol or evals > mp.mp.prec:
                break
            nxt = t - d1 / d2 if d2 < 0 else None
            if nxt is None or not a < nxt < b:
                uphill = hi if d1 >= 0 else lo
                nxt = uphill if uphill not in seen else (a + b) / 2
            t = nxt
        boundary = (t == lo and d1 <= 0) or (t == hi and d1 >= 0)
        value = v0 if t == t0 else mp.mpf(f(t))
        evals += t != t0
        if value < v0:
            t, value, gap, boundary = t0, v0, gap0, False
        verr = gap + abs(value) * round_eps + mp.mpf(ctx.target_abs_err)
        return ErrBounded(value, verr, meta={"argmax": t, "boundary": boundary, "evals": evals})
